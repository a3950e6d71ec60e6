package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitFact records the physical unit a package-level object carries in its
// name suffix (e.g. MaxTempK → "K", CToK → "K" for the returned value).
// Exported on constants, variables and functions, it lets dependent
// packages check unit discipline against APIs whose declarations they
// never parse.
type UnitFact struct {
	// Unit is the canonical suffix token: K, C, W, KW, J, KJ, Wh, KWh,
	// A, Ah or V.
	Unit string
}

// AFact marks UnitFact as a Fact.
func (*UnitFact) AFact() {}

func (f *UnitFact) String() string { return "carries unit " + f.Unit }

// unitDim groups suffix tokens by physical dimension, for diagnostics: a
// K/C mix is a scale error inside one dimension, a K/W mix a dimension
// error. Both are wrong in a sum.
var unitDim = map[string]string{
	"K": "temperature", "C": "temperature",
	"W": "power", "KW": "power",
	"J": "energy", "KJ": "energy", "Wh": "energy", "KWh": "energy",
	"A": "current", "Ah": "charge", "V": "voltage",
}

// unitSuffixes is the token list in longest-first match order.
var unitSuffixes = []string{"KWh", "KW", "KJ", "Wh", "Ah", "K", "C", "W", "J", "A", "V"}

// UnitMix enforces unit discipline in arithmetic over the electro-thermal
// models' naming convention (package units: "everything is SI unless a
// name says otherwise" — tempK, powerW, energyWh).
//
// Additive operators and comparisons require both operands to carry the
// same unit suffix: tempK + coolerPowerW is dimensionally meaningless, and
// tempK - limitC is the Celsius/Kelvin offset bug the paper's Arrhenius
// model (Eq. 5) silently amplifies. Multiplication and division are
// exempt (W·s is legitimately J). Conversions must go through the
// dedicated helpers (units.CToK / units.KToC), whose name suffixes — and
// those of every cross-package constant and function — reach the analyzer
// as UnitFacts.
var UnitMix = &Analyzer{
	Name: "unitmix",
	Doc: `forbid adding or comparing quantities with conflicting unit suffixes

Identifiers ending in a unit token (tempK, limitC, powerW, energyWh, ...)
declare their unit; a + - == < <= > >= != between two operands whose
declared units differ is a dimensional or scale error (K vs C, J vs Wh).
Convert explicitly (units.CToK, units.JouleToKWh) so the suffixes agree,
or suppress with //lint:ignore unitmix <reason> where the mix is
intentional.`,
	Run: runUnitMix,
}

func runUnitMix(pass *Pass) error {
	// Export unit facts for this package's named API surface, so
	// dependent packages can check mixes against it.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if u := unitSuffix(name); u != "" {
			switch obj := scope.Lookup(name).(type) {
			case *types.Const, *types.Var, *types.Func:
				pass.ExportObjectFact(obj, &UnitFact{Unit: u})
			}
		}
	}

	mixOps := map[token.Token]bool{
		token.ADD: true, token.SUB: true,
		token.EQL: true, token.NEQ: true,
		token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || !mixOps[bin.Op] {
				return true
			}
			ux, nx := operandUnit(pass, bin.X)
			uy, ny := operandUnit(pass, bin.Y)
			if ux == "" || uy == "" || ux == uy {
				return true
			}
			kind := "dimension"
			if unitDim[ux] == unitDim[uy] {
				kind = "scale"
			}
			pass.Reportf(bin.OpPos, "unit mismatch in %q: %s is in %s but %s is in %s (%s conflict); convert via internal/units so the suffixes agree", bin.Op.String(), nx, ux, ny, uy, kind)
			return true
		})
	}
	return nil
}

// operandUnit determines the unit an operand expression carries, and a
// display name for it. Plain identifiers and selector fields declare
// units through their own names; calls declare the unit of their result
// through the callee's name — resolved via UnitFact for cross-package
// callees, so units.CToK(x) is a kelvin quantity two packages away.
func operandUnit(pass *Pass, e ast.Expr) (unit, name string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return unitSuffix(e.Name), e.Name
	case *ast.SelectorExpr:
		name := e.Sel.Name
		if obj, ok := pass.TypesInfo.Uses[e.Sel].(*types.Const); ok && obj.Pkg() != nil && obj.Pkg() != pass.Pkg {
			var fact UnitFact
			if pass.ImportObjectFact(obj, &fact) {
				return fact.Unit, obj.Pkg().Name() + "." + name
			}
		}
		return unitSuffix(name), name
	case *ast.CallExpr:
		callee := staticCallee(pass.TypesInfo, e)
		if callee == nil {
			return "", ""
		}
		label := callee.Name() + "(...)"
		if callee.Pkg() != nil && callee.Pkg() != pass.Pkg {
			var fact UnitFact
			if pass.ImportObjectFact(callee, &fact) {
				return fact.Unit, callee.Pkg().Name() + "." + label
			}
			return "", ""
		}
		return unitSuffix(callee.Name()), label
	}
	return "", ""
}

// unitSuffix extracts the unit token a camelCase identifier declares: the
// name must end with a known token preceded by a lowercase letter, so
// tempK and coolerPowerW match while HBC (an all-caps acronym) and K (a
// bare variable) do not.
func unitSuffix(name string) string {
	for _, suf := range unitSuffixes {
		if !strings.HasSuffix(name, suf) {
			continue
		}
		rest := name[:len(name)-len(suf)]
		if rest == "" {
			return ""
		}
		last := rest[len(rest)-1]
		if last >= 'a' && last <= 'z' {
			return suf
		}
		return ""
	}
	return ""
}
