package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The eight-lane state sweep (sweep8_amd64.s, sweepGroup8) is not written
// by hand: widen8 derives it from the four-lane AVX2 kernel
// (sweep_amd64.s, sweepGroup), macro by macro, so the two cannot drift
// apart. TestSweepKernel8Generated fails when the checked-in file is not
// what widen8 makes of the current AVX2 source, and
//
//	go test ./internal/core -run TestSweepKernel8Generated -update
//
// rewrites it. Each rule below keeps every lane's bits (DESIGN.md §10,
// "8-lane kernel"); an instruction no rule covers fails the generator
// instead of passing through unwidened.

var update = flag.Bool("update", false, "rewrite sweep8_amd64.s from sweep_amd64.s")

func TestSweepKernel8Generated(t *testing.T) {
	src, err := os.ReadFile("sweep_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	want, err := widen8(src)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("sweep8_amd64.s", want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("sweep8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep8_amd64.s is not generated from sweep_amd64.s: run go test ./internal/core -run TestSweepKernel8Generated -update")
	}
}

const sweep8Header = `// Code generated by TestSweepKernel8Generated from sweep_amd64.s; DO NOT EDIT.

// Eight-lane state sweep (sweepGroup8), bit-identical to the portable
// stages of stepStages (gradient.go) and to two sweepGroup calls.
//
// Every macro is the macro of the same name in sweep_amd64.s widened by
// the rules of sweep8_gen_test.go: one rollout lane per element of a zmm
// register, Y registers become Z registers and X registers their Y
// halves; constants are 64-byte broadcasts; compares write K1 and
// VPMOVM2Q turns it back into a lane mask; VBLENDVPD and VMOVMSKPD read
// a lane mask through VPMOVQ2M; a tape field is stored as its low four
// lanes to the row of lg.tape[0] (R8) and its high four, extracted with
// VEXTRACTF64X4, to that of lg.tape[1] (R9), a flag byte the same way
// as two nibbles, and read back joined with VINSERTF64X4 (through Z13
// where an instruction takes it as an operand); the logarithm's exponent
// is truncated with VPMOVQD. ROW, ZLOAD and GATHER, which address the
// two rows and gather the lanes' windows, are written for eight lanes in
// the generator.
`

// sweep8Macros are the macros widen8 writes for eight lanes in place of
// the AVX2 source's: the row pointers and the gathers.
var sweep8Macros = map[string]string{
	// R8 and R9 at step BX's rows of the low and high four lanes.
	"ROW": `
	MOVQ  BX, AX
	IMULQ $tapeRow__size, AX
	MOVQ  laneGroup_tape+0(DI), R8
	MOVQ  laneGroup_tape+8(DI), R9
	ADDQ  AX, R8
	ADDQ  AX, R9`,
	// capU in Z0, coolU in Z2: the (capU, coolU) pairs of lanes 0, 2, 4
	// and 6 in the 128-bit quarters of Z0, those of 1, 3, 5 and 7 in Z1's,
	// then unpacked.
	"ZLOAD": `
	MOVQ         laneGroup_base(DI), AX
	MOVQ         laneGroup_z+0(DI), CX
	VMOVUPD      (CX)(AX*8), X0
	MOVQ         laneGroup_z+16(DI), CX
	VINSERTF128  $1, (CX)(AX*8), Y0, Y0
	MOVQ         laneGroup_z+32(DI), CX
	VINSERTF64X2 $2, (CX)(AX*8), Z0, Z0
	MOVQ         laneGroup_z+48(DI), CX
	VINSERTF64X2 $3, (CX)(AX*8), Z0, Z0
	MOVQ         laneGroup_z+8(DI), CX
	VMOVUPD      (CX)(AX*8), X1
	MOVQ         laneGroup_z+24(DI), CX
	VINSERTF128  $1, (CX)(AX*8), Y1, Y1
	MOVQ         laneGroup_z+40(DI), CX
	VINSERTF64X2 $2, (CX)(AX*8), Z1, Z1
	MOVQ         laneGroup_z+56(DI), CX
	VINSERTF64X2 $3, (CX)(AX*8), Z1, Z1
	VUNPCKHPD    Z1, Z0, Z2
	VUNPCKLPD    Z1, Z0, Z0`,
	// Element BX of the eight lanes' arrays at field off into Y (X its
	// low half), four lanes at a time in Y13 with X14 scratch.
	"GATHER": `
	MOVQ         off+0(DI), CX
	VMOVSD       (CX)(BX*8), X13
	MOVQ         off+8(DI), CX
	VMOVHPD      (CX)(BX*8), X13, X13
	MOVQ         off+16(DI), CX
	VMOVSD       (CX)(BX*8), X14
	MOVQ         off+24(DI), CX
	VMOVHPD      (CX)(BX*8), X14, X14
	VINSERTF128  $1, X14, Y13, X
	MOVQ         off+32(DI), CX
	VMOVSD       (CX)(BX*8), X13
	MOVQ         off+40(DI), CX
	VMOVHPD      (CX)(BX*8), X13, X13
	MOVQ         off+48(DI), CX
	VMOVSD       (CX)(BX*8), X14
	MOVQ         off+56(DI), CX
	VMOVHPD      (CX)(BX*8), X14, X14
	VINSERTF128  $1, X14, Y13, Y13
	VINSERTF64X4 $1, Y13, Y, Y`,
}

// sweep8Plain are the instructions widen8 passes on with their registers
// renamed only: lane-wise on every width, or scalar.
var sweep8Plain = map[string]bool{
	"VMOVUPD": true, "VADDPD": true, "VSUBPD": true, "VMULPD": true,
	"VDIVPD": true, "VSQRTPD": true, "VANDPD": true, "VANDNPD": true,
	"VORPD": true, "VXORPD": true, "VFMADD213PD": true, "VFNMADD231PD": true,
	"VCVTDQ2PD": true, "VPADDD": true, "VPMOVZXDQ": true, "VPSLLQ": true,
	"VPSRLQ": true, "VPSUBQ": true, "VZEROUPPER": true,
	"MOVQ": true, "MOVB": true, "ADDQ": true, "IMULQ": true, "ORQ": true,
	"INCQ": true, "CMPQ": true, "JEQ": true, "JNE": true, "JGE": true,
	"JMP": true, "RET": true,
}

var (
	sweep8Reg    = regexp.MustCompile(`\b([XY])(\d+)\b`)
	sweep8Tape   = regexp.MustCompile(`^\w+\(R8\)$`)
	sweep8Zreg   = regexp.MustCompile(`^Z\d+$`)
	sweep8Define = regexp.MustCompile(`^#define (\w+)`)
	sweep8Data   = regexp.MustCompile(`^DATA (\w+)<>\+(\d+)\(SB\)/(\d), \$(.+)$`)
	sweep8Globl  = regexp.MustCompile(`^GLOBL (\w+)<>\(SB\), RODATA\|NOPTR, \$(\d+)$`)
)

// widen8 generates the eight-lane kernel from the four-lane source.
func widen8(src []byte) ([]byte, error) {
	lines := strings.Split(strings.TrimRight(string(src), "\n"), "\n")
	// The generated items, one per source item, each after a blank line
	// where the source had a blank line or a comment before it.
	var out []string
	gap := false
	emit := func(block ...string) {
		text := strings.Join(block, "\n")
		if gap && len(out) > 0 {
			text = "\n" + text
		}
		out = append(out, text)
		gap = false
	}
	// The data symbols, emitted once the code that still reads them is
	// known (the even-dword table of VPERMD is not).
	type data struct {
		at, width int
		vals      []string
	}
	dataOf := map[string]*data{}
	var dataNames []string
	inText := false

	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		switch {
		case line == "" || strings.HasPrefix(line, "//"):
			gap = true
		case strings.HasPrefix(line, "#include"):
			emit(line)
		case strings.HasPrefix(line, "#define") && !strings.HasSuffix(line, `\`):
			emit(line)
		case strings.HasPrefix(line, "#define"):
			// A macro: its name line and its continuation lines.
			head := strings.TrimSpace(strings.TrimSuffix(line, `\`))
			var stmts []string
			for i++; i < len(lines); i++ {
				l := strings.TrimSpace(lines[i])
				more := strings.HasSuffix(l, `\`)
				l = strings.TrimSpace(strings.TrimSuffix(l, `\`))
				for _, st := range strings.Split(l, ";") {
					if st = strings.TrimSpace(st); st != "" {
						stmts = append(stmts, st)
					}
				}
				if !more {
					break
				}
			}
			name := sweep8Define.FindStringSubmatch(head)[1]
			var widened []string
			if hand, ok := sweep8Macros[name]; ok {
				widened = strings.Split(strings.TrimPrefix(hand, "\n"), "\n")
				for j := range widened {
					widened[j] = strings.TrimSpace(widened[j])
				}
			} else if name == "BCAST4" {
				head = strings.Replace(head, "BCAST4", "BCAST8", 1)
				widened = bcast8()
			} else {
				var err error
				if widened, err = widenStmts(stmts); err != nil {
					return nil, fmt.Errorf("macro %s: %w", name, err)
				}
			}
			block := []string{head + ` \`}
			for j, st := range widened {
				if j < len(widened)-1 {
					st += `; \`
				}
				block = append(block, "\t"+formatStmt(st))
			}
			emit(block...)
		case strings.HasPrefix(line, "BCAST4("):
			emit(strings.Replace(line, "BCAST4(", "BCAST8(", 1))
		case strings.HasPrefix(line, "DATA "):
			m := sweep8Data.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("unparsed data line %q", line)
			}
			d := dataOf[m[1]]
			if d == nil {
				d = &data{width: int(m[3][0] - '0')}
				dataOf[m[1]] = d
				dataNames = append(dataNames, m[1])
				d.at = len(out)
				emit("") // filled in below, after its gap
			}
			d.vals = append(d.vals, m[4])
		case strings.HasPrefix(line, "GLOBL "):
			if sweep8Globl.FindStringSubmatch(line) == nil {
				return nil, fmt.Errorf("unparsed GLOBL line %q", line)
			}
		case strings.HasPrefix(line, "TEXT ·sweepGroup(SB)"):
			inText = true
			emit(strings.Replace(line, "·sweepGroup(SB)", "·sweepGroup8(SB)", 1))
		case inText && strings.HasSuffix(line, ":"):
			emit(line)
		case inText:
			ws, err := widenStmts([]string{line})
			if err != nil {
				return nil, fmt.Errorf("sweepGroup: %w", err)
			}
			for k := range ws {
				ws[k] = "\t" + formatStmt(ws[k])
			}
			emit(ws...)
		default:
			return nil, fmt.Errorf("unparsed line %q", line)
		}
	}
	code := strings.Join(out, "\n")
	for _, name := range dataNames {
		d := dataOf[name]
		if !strings.Contains(code, name+"<>") {
			continue // read by no widened instruction
		}
		for _, v := range d.vals[1:] {
			if v != d.vals[0] {
				return nil, fmt.Errorf("data %s is not a broadcast", name)
			}
		}
		// Twice the lanes: a 64-byte broadcast of a float64 or a mask,
		// or eight dwords where the AVX2 source lays four.
		n := 2 * len(d.vals)
		block := make([]string, 0, n+1)
		for k := 0; k < n; k++ {
			block = append(block, fmt.Sprintf("DATA %s<>+%d(SB)/%d, $%s", name, k*d.width, d.width, d.vals[0]))
		}
		block = append(block, fmt.Sprintf("GLOBL %s<>(SB), RODATA|NOPTR, $%d", name, n*d.width))
		out[d.at] += strings.Join(block, "\n")
	}
	var b strings.Builder
	b.WriteString(sweep8Header + "\n")
	for _, blk := range out {
		if strings.TrimSpace(blk) != "" { // not a dropped data symbol
			b.WriteString(blk + "\n")
		}
	}
	return []byte(b.String()), nil
}

// bcast8 widens BCAST4's body: eight DATA entries and 64 bytes.
func bcast8() []string {
	var ws []string
	for k := 0; k < 8; k++ {
		ws = append(ws, fmt.Sprintf("DATA name<>+%d(SB)/8, $val", 8*k))
	}
	return append(ws, "GLOBL name<>(SB), RODATA|NOPTR, $64")
}

// widenStmts applies the widening rules to a sequence of statements (a
// macro body, or one line of the TEXT block).
func widenStmts(stmts []string) ([]string, error) {
	var ws []string
	evenIdx := "" // the register VPERMD's even-dword table was loaded into
	for j := 0; j < len(stmts); j++ {
		st := sweep8Reg.ReplaceAllStringFunc(stmts[j], func(r string) string {
			if r[0] == 'X' {
				return "Y" + r[1:]
			}
			return "Z" + r[1:]
		})
		op, args := splitStmt(st)
		if strings.Contains(op, "(") || len(args) == 0 && !sweep8Plain[op] {
			ws = append(ws, st) // a macro invocation
			continue
		}
		// A tape field: a plain store splits into the two rows, a plain
		// load joins them, and any other read joins them into Z13 first.
		tape := -1
		for k, a := range args {
			if sweep8Tape.MatchString(a) {
				tape = k
			}
		}
		if tape >= 0 && op != "MOVB" {
			hi := strings.Replace(args[tape], "(R8)", "(R9)", 1)
			switch {
			case op == "VMOVUPD" && tape == 1:
				if !sweep8Zreg.MatchString(args[0]) {
					return nil, fmt.Errorf("tape store from %s", args[0])
				}
				ws = append(ws, "VMOVUPD Y"+args[0][1:]+", "+args[1], "VEXTRACTF64X4 $1, "+args[0]+", "+hi)
				continue
			case op == "VMOVUPD" && tape == 0:
				if !sweep8Zreg.MatchString(args[1]) {
					return nil, fmt.Errorf("tape load into %s", args[1])
				}
				ws = append(ws, "VMOVUPD "+args[0]+", Y"+args[1][1:], "VINSERTF64X4 $1, "+hi+", "+args[1]+", "+args[1])
				continue
			case tape == len(args)-1:
				return nil, fmt.Errorf("%s writes the tape", st)
			}
			ws = append(ws, "VMOVUPD "+args[tape]+", Y13", "VINSERTF64X4 $1, "+hi+", Z13, Z13")
			args[tape] = "Z13"
		}
		switch op {
		case "VCMPPD":
			// The ordered-quiet predicate into K1, then back to a lane mask.
			d := args[3]
			args[3] = "K1"
			ws = append(ws, join(op, args), "VPMOVM2Q K1, "+d)
		case "VBLENDVPD":
			// VBLENDMPD selects on the sign bit VBLENDVPD reads. Right
			// after the compare that made the mask, K1 still holds it.
			if len(ws) == 0 || ws[len(ws)-1] != "VPMOVM2Q K1, "+args[0] {
				ws = append(ws, "VPMOVQ2M "+args[0]+", K1")
			}
			ws = append(ws, join("VBLENDMPD", []string{args[1], args[2], "K1", args[3]}))
		case "VMOVMSKPD":
			ws = append(ws, "VPMOVQ2M "+args[0]+", K1", "KMOVB K1, "+args[1])
		case "VCVTPD2DQY":
			ws = append(ws, join("VCVTPD2DQ", args))
		case "VMOVDQU":
			if args[0] != "logEvenDwords<>(SB)" {
				return nil, fmt.Errorf("no rule widens %s", st)
			}
			evenIdx = args[1]
		case "VPERMD":
			// The even dwords of each qword are its low halves: VPMOVQD
			// truncates to them, into the half the conversion reads.
			if args[1] != evenIdx || j+1 == len(stmts) {
				return nil, fmt.Errorf("VPERMD %v is not the even-dword permute", args)
			}
			nop, nargs := splitStmt(stmts[j+1])
			if nop != "VCVTDQ2PD" || len(nargs) != 2 || nargs[1] != args[2] {
				return nil, fmt.Errorf("VPERMD %v is not followed by its conversion", args)
			}
			ws = append(ws, "VPMOVQD "+args[0]+", "+nargs[0])
		case "CMPL", "XORL":
			// A lane mask of eight lanes, not four.
			for k, a := range args {
				if a == "$15" {
					args[k] = "$255"
				}
			}
			ws = append(ws, join(op, args))
		case "MOVB":
			if tape != 1 {
				return nil, fmt.Errorf("no rule widens %s", st)
			}
			// A flag byte: lanes 0–3 into the low row, 4–7 into the high.
			hi := strings.Replace(args[1], "(R8)", "(R9)", 1)
			ws = append(ws, join(op, args), "ANDB $15, "+args[1], "SHRL $4, "+args[0], "MOVB "+args[0]+", "+hi)
		default:
			if !sweep8Plain[op] {
				return nil, fmt.Errorf("no rule widens %s", st)
			}
			ws = append(ws, join(op, args))
		}
	}
	return ws, nil
}

// splitStmt splits a statement into its mnemonic and its operands.
func splitStmt(st string) (string, []string) {
	op, rest, _ := strings.Cut(strings.TrimSpace(st), " ")
	if strings.Contains(op, "(") {
		return st, nil
	}
	var args []string
	for _, a := range strings.Split(rest, ",") {
		if a = strings.TrimSpace(a); a != "" {
			args = append(args, a)
		}
	}
	return op, args
}

func join(op string, args []string) string {
	if len(args) == 0 {
		return op
	}
	return op + " " + strings.Join(args, ", ")
}

// formatStmt aligns a statement's operands at column 14.
func formatStmt(st string) string {
	op, args := splitStmt(st)
	if len(args) == 0 || op == "DATA" || op == "GLOBL" {
		return st
	}
	return fmt.Sprintf("%-13s %s", op, strings.Join(args, ", "))
}
