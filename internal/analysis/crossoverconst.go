package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
)

// CrossoverConst keeps the small-request crossover in exactly one
// place. 32768 (1<<15) is not an arbitrary buffer size here: it is
// calib.DefaultMinParallelN, exported as sfcp.LinearCrossoverN, whose
// remaining job is sfcpd's coalescing cap BatchMaxN = LinearCrossoverN
// - 1 = 32767. That value must not change, and a literal respelling
// anywhere else would fork it silently the first time the constant
// moves. Code outside internal/calib must consume
// calib.DefaultMinParallelN or sfcp.LinearCrossoverN instead. Tests are
// exempt: fixtures legitimately pin concrete sizes.
var CrossoverConst = &Analyzer{
	Name: "crossoverconst",
	Doc:  "forbid literal 1<<15/32768 crossover constants outside internal/calib",
	Run:  runCrossoverConst,
}

// crossoverN is the value being policed. Spelled as a computation from
// the exponent so this file does not itself contain the forbidden
// spelling in executable form, and does not depend on internal/calib
// (the analysis module is dependency-free).
const crossoverN = 1 << crossoverExp

const crossoverExp = 15

func runCrossoverConst(p *Pass) error {
	if p.Pkg.Path == "sfcp/internal/calib" {
		return nil
	}
	for _, f := range p.Pkg.Files {
		if f.IsTest {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				// A constant shift that lands on the crossover value
				// (1<<15, 2<<14, ...) is the same respelling in disguise.
				if n.Op != token.SHL {
					return true
				}
				base, ok1 := intLit(n.X)
				shift, ok2 := intLit(n.Y)
				if ok1 && ok2 && shift < 63 && base<<shift == crossoverN {
					p.Reportf(n.Pos(),
						"literal %d<<%d is the planner crossover constant; use calib.DefaultMinParallelN or sfcp.LinearCrossoverN (the coalescing cap BatchMaxN is LinearCrossoverN-1)", base, shift)
					return false // the operand literals are part of this finding
				}
			case *ast.BasicLit:
				if v, ok := intLitValue(n); ok && v == crossoverN {
					p.Reportf(n.Pos(),
						"literal %s is the planner crossover constant; use calib.DefaultMinParallelN or sfcp.LinearCrossoverN (the coalescing cap BatchMaxN is LinearCrossoverN-1)", n.Value)
				}
			}
			return true
		})
	}
	return nil
}

// intLit unwraps expr to a plain integer literal (parens allowed).
func intLit(expr ast.Expr) (int64, bool) {
	switch e := expr.(type) {
	case *ast.ParenExpr:
		return intLit(e.X)
	case *ast.BasicLit:
		return intLitValue(e)
	}
	return 0, false
}

// intLitValue parses an INT literal in any Go base (decimal, 0x, 0o,
// 0b, underscores).
func intLitValue(lit *ast.BasicLit) (int64, bool) {
	if lit.Kind != token.INT {
		return 0, false
	}
	v, err := strconv.ParseInt(lit.Value, 0, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
