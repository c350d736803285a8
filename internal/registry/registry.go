// Package registry is the catalogue of named permutation-CSP models. It
// makes every workload in the repository — the paper's Costas Array
// Problem, the classical benchmarks (N-Queens, All-Interval, Magic
// Square) and the radar-domain thumbtack extension — constructible from a
// declarative spec, so the facade (internal/core), the CLIs and the HTTP
// solver service (internal/service) can all name models instead of
// hand-wiring csp.Model closures.
//
// A spec is a model name plus integer parameters. The string grammar is
// whitespace-separated key=value tokens, with the model name given either
// as the leading bare token or as name=...:
//
//	costas n=18
//	name=nqueens n=64
//	magicsquare k=5
//
// Omitted parameters take their declared defaults; unknown parameters are
// errors (callers that mix solver options into one string, like
// core.ParseRunSpec, strip their own keys before resolving the rest
// here). The same spec round-trips through JSON as
// {"name": "costas", "params": {"n": 18}}.
//
// Entries are self-describing (name, description, parameter table,
// conformance sizes), which is what lets the csp conformance suite run
// every engine on every registered model and the service publish its
// catalogue over GET /v1/models. Register accepts custom entries at
// runtime — examples/custommodel plugs a from-scratch model in this way.
package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/adaptive"
	"repro/internal/costas"
	"repro/internal/csp"
	"repro/internal/models/allinterval"
	"repro/internal/models/magicsquare"
	"repro/internal/models/nqueens"
	"repro/internal/models/thumbtack"
)

// Param declares one integer parameter of a model entry.
type Param struct {
	// Name is the spec key (e.g. "n").
	Name string `json:"name"`
	// Description says what the parameter means.
	Description string `json:"description"`
	// Default is used when the spec omits the parameter.
	Default int `json:"default"`
	// Min is the smallest accepted value.
	Min int `json:"min"`
}

// Entry describes one registered model: how to build it, how to verify a
// solution, and the metadata the catalogue endpoints publish.
type Entry struct {
	// Name is the registry key (lowercase, no spaces).
	Name string
	// Description is a one-line summary for catalogues (GET /v1/models,
	// costas -models).
	Description string
	// Params declares the accepted parameters in catalogue order.
	Params []Param
	// Build returns a factory of fresh model instances for the resolved
	// parameters (one instance per walker). Params hold every declared
	// parameter (defaults filled in).
	Build func(params map[string]int) (func() csp.Model, error)
	// Valid reports whether cfg solves the instance described by params.
	// The check must be independent of the model's incremental state —
	// it is the registry-level generalisation of core.Solve's "claimed
	// solution is not a Costas array" backstop.
	Valid func(params map[string]int, cfg []int) bool
	// Tuned optionally returns instance-tuned Adaptive Search parameters
	// (the CAP entry returns costas.TunedParams); nil means engine
	// defaults.
	Tuned func(params map[string]int) adaptive.Params
	// Conformance gives parameters for a small instance that every engine
	// solves quickly and deterministically — the cross-product the csp
	// conformance suite runs. Nil excludes the entry from that suite.
	Conformance map[string]int
}

// Spec selects a registered model with concrete parameters.
type Spec struct {
	Name   string         `json:"name"`
	Params map[string]int `json:"params,omitempty"`
}

// String renders the canonical spec grammar: the model name first, then
// the parameters in alphabetical key order.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, s.Params[k])
	}
	return b.String()
}

// MarshalJSON emits the canonical grammar string, the symmetric partner
// of UnmarshalJSON's string form: a Spec round-trips through JSON as
// "costas n=18", which is also what the HTTP clients (internal/backend's
// Remote) put on the wire — one canonical request shape instead of two.
func (s Spec) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts both forms of a model spec: a grammar string
// ("costas n=18") and the structured object ({"name":"costas",
// "params":{"n":18}}). The object form is decoded strictly — an unknown
// field (say a typo'd "paramz") is an error, never a silently dropped
// key, because a dropped key would make the request solve the default
// instance instead of the one asked for.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var str string
	if err := json.Unmarshal(data, &str); err == nil {
		spec, extra, err := ParseSpec(str)
		if err != nil {
			return err
		}
		if len(extra) > 0 {
			return fmt.Errorf("registry: non-integer parameter values in spec %q", str)
		}
		*s = spec
		return nil
	}
	type plain Spec // shed the method set to avoid recursion
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	*s = Spec(p)
	return nil
}

// Instance is a resolved spec: the entry, the fully-defaulted parameters
// and a ready model factory.
type Instance struct {
	// Spec is the normalized spec (name canonical, every declared
	// parameter present).
	Spec Spec
	// Entry is the registry entry the spec resolved against.
	Entry *Entry
	// NewModel builds a fresh model instance per call.
	NewModel func() csp.Model
}

// Valid reports whether cfg solves this instance.
func (inst Instance) Valid(cfg []int) bool {
	return inst.Entry.Valid(inst.Spec.Params, cfg)
}

// TunedParams returns the instance's Adaptive Search parameter set (the
// entry's static per-size formula) and whether one is declared.
func (inst Instance) TunedParams() (adaptive.Params, bool) {
	if inst.Entry.Tuned == nil {
		return adaptive.Params{}, false
	}
	return inst.Entry.Tuned(inst.Spec.Params), true
}

// ReservedKeys are spec keys a model parameter may not use: "name"
// (selects the model) and the solver-option keys that run-spec parsers
// (core.ParseRunSpec) claim for themselves. Register rejects entries
// whose parameters shadow them — otherwise a spec like "mymodel seed=5"
// would silently feed the value to the solver instead of the model.
// core cannot be imported from here (it imports this package), so the
// two lists are pinned together by core's TestOptionKeysAreReserved:
// adding an option key to core without extending this list fails that
// test.
var ReservedKeys = []string{
	"name", "method", "portfolio", "walkers", "virtual", "seed", "maxiter", "checkevery",
}

func isReservedKey(k string) bool {
	for _, r := range ReservedKeys {
		if k == r {
			return true
		}
	}
	return false
}

// Registry is a set of named model entries. The zero value is empty and
// ready to use; most callers want the package-level Default registry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Register adds an entry. It rejects duplicates, empty or ill-formed
// names, and entries missing Build or Valid — a registry entry is a
// contract, not a hint.
func (r *Registry) Register(e Entry) error {
	if e.Name == "" || strings.ContainsAny(e.Name, " \t\n=") {
		return fmt.Errorf("registry: invalid model name %q", e.Name)
	}
	if e.Build == nil || e.Valid == nil {
		return fmt.Errorf("registry: entry %q must declare Build and Valid", e.Name)
	}
	seen := map[string]bool{}
	for _, p := range e.Params {
		if p.Name == "" || strings.ContainsAny(p.Name, " \t\n=") || seen[p.Name] {
			return fmt.Errorf("registry: entry %q has invalid or duplicate parameter %q", e.Name, p.Name)
		}
		if isReservedKey(p.Name) {
			return fmt.Errorf("registry: entry %q parameter %q shadows a reserved run-spec key (%s)",
				e.Name, p.Name, strings.Join(ReservedKeys, ", "))
		}
		if p.Default < p.Min {
			return fmt.Errorf("registry: entry %q parameter %q default %d below min %d", e.Name, p.Name, p.Default, p.Min)
		}
		seen[p.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = map[string]*Entry{}
	}
	if _, dup := r.entries[e.Name]; dup {
		return fmt.Errorf("registry: model %q already registered", e.Name)
	}
	r.entries[e.Name] = &e
	return nil
}

// Lookup returns the entry for name.
func (r *Registry) Lookup(name string) (*Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown model %q (have %s)", name, strings.Join(r.namesLocked(), ", "))
	}
	return e, nil
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.namesLocked()
}

func (r *Registry) namesLocked() []string {
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every entry in name order.
func (r *Registry) All() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, n := range r.namesLocked() {
		out = append(out, r.entries[n])
	}
	return out
}

// Build resolves a spec against the registry: unknown names and
// parameters, values below a parameter's minimum, and non-integer values
// are errors; omitted parameters take their defaults. The returned
// Instance owns a normalized copy of the spec.
func (r *Registry) Build(spec Spec) (Instance, error) {
	e, err := r.Lookup(spec.Name)
	if err != nil {
		return Instance{}, err
	}
	resolved := make(map[string]int, len(e.Params))
	for _, p := range e.Params {
		v, ok := spec.Params[p.Name]
		if !ok {
			v = p.Default
		}
		if v < p.Min {
			return Instance{}, fmt.Errorf("registry: %s: parameter %s=%d below minimum %d", e.Name, p.Name, v, p.Min)
		}
		resolved[p.Name] = v
	}
	for k := range spec.Params {
		if _, ok := resolved[k]; !ok {
			return Instance{}, fmt.Errorf("registry: %s: unknown parameter %q (want %s)", e.Name, k, strings.Join(paramNames(e.Params), ", "))
		}
	}
	newModel, err := e.Build(resolved)
	if err != nil {
		return Instance{}, fmt.Errorf("registry: %s: %w", e.Name, err)
	}
	return Instance{
		Spec:     Spec{Name: e.Name, Params: resolved},
		Entry:    e,
		NewModel: newModel,
	}, nil
}

// BuildSpec parses a grammar string and resolves it in one call. Keys
// whose values are not integers are errors here; callers that interleave
// their own string-valued options use ParseSpec directly.
func (r *Registry) BuildSpec(s string) (Instance, error) {
	spec, extra, err := ParseSpec(s)
	if err != nil {
		return Instance{}, err
	}
	if len(extra) > 0 {
		keys := make([]string, 0, len(extra))
		for k := range extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return Instance{}, fmt.Errorf("registry: non-integer parameter values for %s (%s)", spec.Name, strings.Join(keys, ", "))
	}
	return r.Build(spec)
}

func paramNames(ps []Param) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// ParseSpec tokenizes the string grammar without consulting any registry:
// whitespace-separated key=value tokens, the model name as the leading
// bare token or a name= pair. Integer-valued keys land in the returned
// Spec; remaining key=value pairs come back in extra for the caller to
// interpret (core.ParseRunSpec reads its solver options from there).
func ParseSpec(s string) (Spec, map[string]string, error) {
	spec := Spec{Params: map[string]int{}}
	extra := map[string]string{}
	for i, tok := range strings.Fields(s) {
		key, val, hasEq := strings.Cut(tok, "=")
		if key == "" || (hasEq && val == "") {
			return Spec{}, nil, fmt.Errorf("registry: malformed spec token %q", tok)
		}
		if !hasEq {
			if i != 0 {
				return Spec{}, nil, fmt.Errorf("registry: bare token %q (only the leading model name may omit key=)", tok)
			}
			spec.Name = key
			continue
		}
		if key == "name" {
			if spec.Name != "" {
				return Spec{}, nil, fmt.Errorf("registry: model name given twice in %q", s)
			}
			spec.Name = val
			continue
		}
		if _, dup := spec.Params[key]; dup {
			return Spec{}, nil, fmt.Errorf("registry: duplicate key %q in %q", key, s)
		}
		if _, dup := extra[key]; dup {
			return Spec{}, nil, fmt.Errorf("registry: duplicate key %q in %q", key, s)
		}
		if n, err := strconv.Atoi(val); err == nil {
			spec.Params[key] = n
		} else {
			extra[key] = val
		}
	}
	if spec.Name == "" {
		return Spec{}, nil, fmt.Errorf("registry: spec %q names no model", s)
	}
	return spec, extra, nil
}

// Default is the package-level registry pre-populated with every built-in
// model. Register adds to it; the facade and the service resolve against
// it.
var Default = func() *Registry {
	r := New()
	for _, e := range builtins() {
		if err := r.Register(e); err != nil {
			panic(err) // built-in entries are statically correct
		}
	}
	return r
}()

// Register adds an entry to the Default registry.
func Register(e Entry) error { return Default.Register(e) }

// Lookup resolves a name in the Default registry.
func Lookup(name string) (*Entry, error) { return Default.Lookup(name) }

// Names lists the Default registry's models, sorted.
func Names() []string { return Default.Names() }

// All lists the Default registry's entries in name order.
func All() []*Entry { return Default.All() }

// Build resolves a spec against the Default registry.
func Build(spec Spec) (Instance, error) { return Default.Build(spec) }

// BuildSpec parses and resolves a grammar string against the Default
// registry.
func BuildSpec(s string) (Instance, error) { return Default.BuildSpec(s) }

// builtins returns the repository's model catalogue.
func builtins() []Entry {
	return []Entry{
		{
			Name:        "costas",
			Description: "Costas Array Problem (§IV): n×n permutation with a repeat-free difference triangle",
			Params: []Param{
				{Name: "n", Description: "array order", Default: 12, Min: 1},
			},
			Build: func(p map[string]int) (func() csp.Model, error) {
				n := p["n"]
				return func() csp.Model { return costas.New(n, costas.Options{}) }, nil
			},
			Valid: func(p map[string]int, cfg []int) bool {
				return len(cfg) == p["n"] && costas.IsCostas(cfg)
			},
			Tuned:       func(p map[string]int) adaptive.Params { return costas.TunedParams(p["n"]) },
			Conformance: map[string]int{"n": 10},
		},
		{
			Name:        "nqueens",
			Description: "N-Queens (§III-A): n queens on an n×n board, no two attacking",
			Params: []Param{
				{Name: "n", Description: "board size / queen count", Default: 16, Min: 4},
			},
			Build: func(p map[string]int) (func() csp.Model, error) {
				n := p["n"]
				return func() csp.Model { return nqueens.New(n) }, nil
			},
			Valid: func(p map[string]int, cfg []int) bool {
				return len(cfg) == p["n"] && nqueens.Valid(cfg)
			},
			Conformance: map[string]int{"n": 16},
		},
		{
			Name:        "allinterval",
			Description: "All-Interval Series (CSPLib prob007): permutation with distinct adjacent differences",
			Params: []Param{
				{Name: "n", Description: "series length", Default: 12, Min: 2},
			},
			Build: func(p map[string]int) (func() csp.Model, error) {
				n := p["n"]
				return func() csp.Model { return allinterval.New(n) }, nil
			},
			Valid: func(p map[string]int, cfg []int) bool {
				return len(cfg) == p["n"] && allinterval.Valid(cfg)
			},
			Conformance: map[string]int{"n": 10},
		},
		{
			Name:        "magicsquare",
			Description: "Magic Square (CSPLib prob019): k×k grid of {1..k²} with equal line sums",
			Params: []Param{
				{Name: "k", Description: "square side (k² variables)", Default: 4, Min: 3},
			},
			Build: func(p map[string]int) (func() csp.Model, error) {
				k := p["k"]
				return func() csp.Model { return magicsquare.New(k) }, nil
			},
			Valid: func(p map[string]int, cfg []int) bool {
				return len(cfg) == p["k"]*p["k"] && magicsquare.Valid(p["k"], cfg)
			},
			Conformance: map[string]int{"k": 4},
		},
		{
			Name:        "thumbtack",
			Description: "radar extension (§I–II): hop pattern with a perfect thumbtack ambiguity surface",
			Params: []Param{
				{Name: "n", Description: "pulse / frequency count", Default: 10, Min: 1},
			},
			Build: func(p map[string]int) (func() csp.Model, error) {
				n := p["n"]
				return func() csp.Model { return thumbtack.New(n) }, nil
			},
			Valid: func(p map[string]int, cfg []int) bool {
				return len(cfg) == p["n"] && thumbtack.Valid(cfg)
			},
			Conformance: map[string]int{"n": 9},
		},
	}
}
