package lint

import (
	"go/types"
	"reflect"
	"sync"
)

// A Fact is a unit of information computed by one analyzer about one
// object, mirroring analysis.Fact. Analyzers export facts while analyzing
// a package; when a dependent package is analyzed later in the same run,
// the same analyzer can import them and reason across package boundaries
// (transitive nondeterminism, always-nil error returns, allocation-free
// callees, unit annotations) without ever re-reading the dependency's
// source. Fact types are pointers to structs: an import copies the
// stored struct into the caller's.
type Fact interface {
	// AFact is a marker method: it does nothing, but restricts the
	// interface to types that opt in deliberately.
	AFact()
}

// factKey identifies one stored fact: which analyzer produced it, about
// which object of which package.
type factKey struct {
	analyzer string
	pkg      string
	obj      string
}

// factStore holds every fact produced during one driver run. It is shared
// across packages (and across worker goroutines in the parallel driver),
// so all access is mutex-guarded. Lookup is by (analyzer, package path,
// object key) rather than object pointer identity, because the importing
// package sees its dependencies through export data — a different
// *types.Package instance than the one the facts were exported on.
type factStore struct {
	mu sync.RWMutex
	m  map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]Fact)}
}

func (s *factStore) set(k factKey, f Fact) {
	s.mu.Lock()
	s.m[k] = f
	s.mu.Unlock()
}

// get copies the stored fact for k into dst (a pointer to a fact struct of
// the same concrete type) and reports whether one was found.
func (s *factStore) get(k factKey, dst Fact) bool {
	s.mu.RLock()
	src, ok := s.m[k]
	s.mu.RUnlock()
	if !ok || reflect.TypeOf(src) != reflect.TypeOf(dst) {
		return false
	}
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
	return true
}

// objectKey names obj relative to its package: "Name" for package-level
// objects, "Type.Method" for methods, "Type.Field" for struct fields.
// The key survives the round trip through export data, which is what
// makes cross-package fact lookup work. Qualifying fields by their
// owning named type keeps same-named fields of different structs from
// sharing facts (a bare "Src" key would alias every struct's Src).
func objectKey(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + obj.Name()
			}
		}
	case *types.Var:
		if obj.IsField() {
			if owner := owningTypeName(obj); owner != "" {
				return owner + "." + obj.Name()
			}
		}
	}
	return obj.Name()
}

// owningTypeName finds the package-level named type whose underlying
// struct declares exactly this field object. Fields of anonymous
// package-level struct variables (no owning TypeName) fall back to the
// bare name — they cannot collide with a qualified key.
func owningTypeName(field *types.Var) string {
	pkg := field.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if structDeclaresField(st, field, 0) {
			return tn.Name()
		}
	}
	return ""
}

// structDeclaresField reports whether st — or an inline anonymous struct
// nested inside it, up to a small depth — declares this exact field
// object. Named field types are not descended into: their fields belong
// to that type's own key space.
func structDeclaresField(st *types.Struct, field *types.Var, depth int) bool {
	if depth > 3 {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f == field {
			return true
		}
		if inner, ok := f.Type().(*types.Struct); ok {
			if structDeclaresField(inner, field, depth+1) {
				return true
			}
		}
	}
	return false
}
