package core

import (
	"context"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/models/nqueens"
)

func TestSolveSequential(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 13} {
		res, err := Solve(context.Background(), Options{N: n, Seed: 7})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Solved || !Verify(res.Array) {
			t.Fatalf("n=%d: bad result %+v", n, res)
		}
		if res.Winner != 0 || len(res.Stats) != 1 {
			t.Fatalf("n=%d: sequential run bookkeeping wrong: %+v", n, res)
		}
	}
}

func TestSolveParallel(t *testing.T) {
	res, err := Solve(context.Background(), Options{N: 12, Walkers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !Verify(res.Array) {
		t.Fatalf("parallel solve failed: %+v", res)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("expected 4 walker stats, got %d", len(res.Stats))
	}
}

func TestSolveVirtualDeterministic(t *testing.T) {
	opts := Options{N: 13, Walkers: 32, Virtual: true, Seed: 11}
	r1, err := Solve(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Solve(context.Background(), opts)
	if !r1.Solved || r1.Iterations != r2.Iterations || r1.Winner != r2.Winner {
		t.Fatalf("virtual mode not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestSolveValidatesOptions(t *testing.T) {
	if _, err := Solve(context.Background(), Options{N: 0}); err == nil {
		t.Fatal("accepted N=0")
	}
	if _, err := Solve(context.Background(), Options{N: 5, Walkers: -1}); err == nil {
		t.Fatal("accepted negative walkers")
	}
}

func TestSolveRespectsMaxIterations(t *testing.T) {
	res, err := Solve(context.Background(), Options{N: 19, MaxIterations: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.Iterations != 0 || res.TotalIterations > 100 {
		t.Fatalf("budget ignored: %+v", res)
	}
}

func TestSolveCustomParamsAndModel(t *testing.T) {
	p := adaptive.DefaultParams()
	p.PlateauProb = 0.95
	res, err := Solve(context.Background(), Options{
		N:      10,
		Seed:   2,
		Params: &p,
		Model:  costas.Options{Err: costas.ErrQuadratic, FullTriangle: true},
	})
	if err != nil || !res.Solved {
		t.Fatalf("custom options solve failed: %v %+v", err, res)
	}
}

func TestSeedZeroMeansOne(t *testing.T) {
	a, _ := Solve(context.Background(), Options{N: 11, Seed: 0})
	b, _ := Solve(context.Background(), Options{N: 11, Seed: 1})
	if a.Iterations != b.Iterations {
		t.Fatalf("seed 0 (%d iters) should behave as seed 1 (%d iters)", a.Iterations, b.Iterations)
	}
}

func TestSolveEveryMethod(t *testing.T) {
	for _, method := range []string{"adaptive", "as", "tabu", "hillclimb", "hc", "dialectic", "ds"} {
		res, err := Solve(context.Background(), Options{N: 11, Method: method, Seed: 3})
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		if !res.Solved || !Verify(res.Array) {
			t.Fatalf("method %q did not produce a Costas array: %+v", method, res)
		}
	}
}

func TestSolveMethodTabuParallel(t *testing.T) {
	res, err := Solve(context.Background(), Options{N: 12, Method: "tabu", Walkers: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !Verify(res.Array) {
		t.Fatalf("parallel tabu solve failed: %+v", res)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("expected 4 walker stats, got %d", len(res.Stats))
	}
}

func TestSolvePortfolio(t *testing.T) {
	res, err := Solve(context.Background(), Options{N: 12, Method: "portfolio", Walkers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved || !Verify(res.Array) {
		t.Fatalf("portfolio solve failed: %+v", res)
	}
}

func TestSolvePortfolioCustomMix(t *testing.T) {
	res, err := Solve(context.Background(), Options{
		N: 11, Method: "portfolio", Portfolio: []string{"adaptive", "tabu"}, Walkers: 4, Seed: 6,
	})
	if err != nil || !res.Solved || !Verify(res.Array) {
		t.Fatalf("custom portfolio solve failed: %v %+v", err, res)
	}
}

func TestSolveRejectsUnknownMethod(t *testing.T) {
	if _, err := Solve(context.Background(), Options{N: 10, Method: "simulated-annealing"}); err == nil {
		t.Fatal("accepted unknown method")
	}
	if _, err := Solve(context.Background(), Options{
		N: 10, Method: "portfolio", Portfolio: []string{"portfolio"},
	}); err == nil {
		t.Fatal("accepted nested portfolio")
	}
	if _, err := Solve(context.Background(), Options{
		N: 10, Method: "tabu", Portfolio: []string{"adaptive", "tabu"},
	}); err == nil {
		t.Fatal("silently ignored Options.Portfolio with a non-portfolio Method")
	}
}

func TestSolveModelNQueens(t *testing.T) {
	newModel := func() csp.Model { return nqueens.New(16) }
	for _, method := range []string{"adaptive", "tabu", "hillclimb", "dialectic"} {
		res, err := SolveModel(context.Background(), newModel, Options{Method: method, Seed: 4})
		if err != nil {
			t.Fatalf("method %q: %v", method, err)
		}
		if !res.Solved || !nqueens.Valid(res.Array) {
			t.Fatalf("method %q did not place 16 queens: %+v", method, res)
		}
	}
}

func TestSolveModelPortfolioVirtual(t *testing.T) {
	newModel := func() csp.Model { return nqueens.New(12) }
	opts := Options{Method: "portfolio", Walkers: 8, Virtual: true, Seed: 9}
	r1, err := SolveModel(context.Background(), newModel, opts)
	if err != nil || !r1.Solved || !nqueens.Valid(r1.Array) {
		t.Fatalf("virtual portfolio SolveModel failed: %v %+v", err, r1)
	}
	r2, _ := SolveModel(context.Background(), newModel, opts)
	if r1.Winner != r2.Winner || r1.Iterations != r2.Iterations {
		t.Fatalf("virtual portfolio not reproducible: %+v vs %+v", r1, r2)
	}
}

func TestSolveModelValidatesFactory(t *testing.T) {
	if _, err := SolveModel(context.Background(), nil, Options{}); err == nil {
		t.Fatal("accepted nil model factory")
	}
}

func TestMaxIterationsPrecedence(t *testing.T) {
	// A caller-supplied Params budget must survive Options.MaxIterations == 0.
	p := costas.TunedParams(19)
	p.MaxIterations = 100
	res, err := Solve(context.Background(), Options{N: 19, Seed: 5, Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Skip("improbably lucky run")
	}
	if res.TotalIterations > 100 {
		t.Fatalf("Params.MaxIterations was clobbered by Options.MaxIterations == 0: %+v", res)
	}

	// A non-zero Options.MaxIterations overrides the Params budget.
	p2 := costas.TunedParams(19)
	p2.MaxIterations = 10
	res2, err := Solve(context.Background(), Options{N: 19, Seed: 5, Params: &p2, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Solved {
		t.Skip("improbably lucky run")
	}
	if res2.TotalIterations <= 10 || res2.TotalIterations > 50 {
		t.Fatalf("Options.MaxIterations did not take precedence: %+v", res2)
	}
}

func TestConstructFacade(t *testing.T) {
	p := Construct(12) // 13 is prime → Welch order 12
	if p == nil || !Verify(p) {
		t.Fatalf("Construct(12) = %v", p)
	}
	if Construct(0) != nil {
		t.Fatal("Construct(0) should be nil")
	}
}
