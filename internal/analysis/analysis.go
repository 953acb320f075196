package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Position locates a finding in the source tree.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// Finding is one analyzer hit.
type Finding struct {
	// Analyzer is the short analyzer name ("detcheck", "aliascheck",
	// "lockcheck", "hotpath").
	Analyzer string   `json:"analyzer"`
	Pos      Position `json:"pos"`
	Message  string   `json:"message"`
	// Suppressed marks a finding matched by a //lint:ignore comment;
	// suppressed findings do not fail the run but are counted.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason is the reason text of the matching //lint:ignore.
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// AnalyzerNames lists the analyzers in the order they run.
var AnalyzerNames = []string{"detcheck", "aliascheck", "lockcheck", "hotpath"}

// Config parameterizes a run. The zero value is NOT usable; start from
// DefaultConfig (the spinnaker repo's invariants) and override in tests.
type Config struct {
	// Analyzers enables a subset by name; empty means all.
	Analyzers []string
	// DetScope lists import-path prefixes detcheck applies to. The
	// determinism contract only binds the simulation, fault, and
	// checker planes; wall-clock packages (core, coord) are exempt.
	DetScope []string
	// DetExempt lists import paths excluded even inside DetScope (the
	// simtime chokepoint itself).
	DetExempt []string
	// LockOrder lists ordered lock pairs "pkgpath.Type.field" (or
	// "pkgpath.var" for package-level mutexes): the first lock must be
	// acquired before the second; acquiring the first while holding the
	// second is a finding.
	LockOrder [][2]string
	// NoHoldAcross forbids, while the named lock is held, calls to any
	// method of the listed named types ("pkgpath.Type", typically
	// blob-store interfaces) and — always — channel sends.
	NoHoldAcross []NoHoldRule
}

// NoHoldRule is one "lock L must not be held across X" constraint.
type NoHoldRule struct {
	// Lock names the guarded mutex, "pkgpath.Type.field".
	Lock string
	// Callees lists named types ("pkgpath.Type") whose methods must not
	// be called with Lock held (blob/meta store I/O).
	Callees []string
	// ChanSend forbids channel sends while Lock is held.
	ChanSend bool
}

// DefaultConfig returns the spinnaker repo's invariant set:
//
//   - detcheck scopes to the seed-pure planes (PR 2): internal/sim,
//     internal/transport, internal/lin.
//   - layoutMu is acquired before any replica mu (PR 3/PR 4 ordering).
//   - the storage engine's mu is never held across TableStore/MetaStore
//     calls or channel sends (PR 4: blob I/O off the engine lock).
func DefaultConfig() Config {
	return Config{
		DetScope: []string{
			"spinnaker/internal/sim",
			"spinnaker/internal/host",
			"spinnaker/internal/transport",
			"spinnaker/internal/lin",
		},
		LockOrder: [][2]string{
			{"spinnaker/internal/core.Node.layoutMu", "spinnaker/internal/core.replica.mu"},
		},
		NoHoldAcross: []NoHoldRule{
			{
				Lock: "spinnaker/internal/storage.Engine.mu",
				Callees: []string{
					"spinnaker/internal/sstable.TableStore",
					"spinnaker/internal/wal.MetaStore",
				},
				ChanSend: true,
			},
		},
	}
}

func (c Config) enabled(name string) bool {
	if len(c.Analyzers) == 0 {
		return true
	}
	for _, a := range c.Analyzers {
		if a == name {
			return true
		}
	}
	return false
}

// Result is one lint run's outcome.
type Result struct {
	// Findings are the unsuppressed findings, sorted by position.
	Findings []Finding `json:"findings"`
	// Suppressed are findings matched by //lint:ignore comments.
	Suppressed []Finding `json:"suppressed,omitempty"`
}

// Run executes the enabled analyzers over the loaded module.
func Run(m *Module, cfg Config) (*Result, error) {
	idx, err := buildAnnotations(m)
	if err != nil {
		return nil, err
	}
	var all []Finding
	if cfg.enabled("detcheck") {
		all = append(all, detcheck(m, cfg)...)
	}
	if cfg.enabled("aliascheck") {
		all = append(all, aliascheck(m, idx)...)
	}
	if cfg.enabled("lockcheck") {
		fs, err := lockcheck(m, cfg, idx)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	if cfg.enabled("hotpath") {
		all = append(all, hotpath(m, idx)...)
	}
	sup := collectSuppressions(m)
	res := &Result{}
	for _, f := range all {
		if reason, ok := sup.match(f); ok {
			f.Suppressed = true
			f.SuppressReason = reason
			res.Suppressed = append(res.Suppressed, f)
		} else {
			res.Findings = append(res.Findings, f)
		}
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// finding builds a Finding at the given node.
func finding(m *Module, analyzer string, at ast.Node, format string, args ...any) Finding {
	p := m.Fset.Position(at.Pos())
	return Finding{
		Analyzer: analyzer,
		Pos:      Position{File: p.Filename, Line: p.Line, Col: p.Column},
		Message:  fmt.Sprintf(format, args...),
	}
}

// suppressions maps file → line → analyzer → reason, from
// //lint:ignore spinnaker/<analyzer> <reason> comments. A suppression on
// line N covers findings on line N and line N+1 (the staticcheck
// convention: the comment sits on its own line directly above the
// flagged statement, or trails it).
type suppressions map[string]map[int]map[string]string

const suppressPrefix = "//lint:ignore spinnaker/"

func collectSuppressions(m *Module) suppressions {
	sup := suppressions{}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, suppressPrefix)
					if !ok {
						continue
					}
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					if reason == "" {
						reason = "(no reason given)"
					}
					p := m.Fset.Position(c.Pos())
					byLine := sup[p.Filename]
					if byLine == nil {
						byLine = map[int]map[string]string{}
						sup[p.Filename] = byLine
					}
					byAnalyzer := byLine[p.Line]
					if byAnalyzer == nil {
						byAnalyzer = map[string]string{}
						byLine[p.Line] = byAnalyzer
					}
					byAnalyzer[name] = reason
				}
			}
		}
	}
	return sup
}

func (s suppressions) match(f Finding) (string, bool) {
	byLine, ok := s[f.Pos.File]
	if !ok {
		return "", false
	}
	for _, line := range [2]int{f.Pos.Line, f.Pos.Line - 1} {
		if byAnalyzer, ok := byLine[line]; ok {
			if reason, ok := byAnalyzer[f.Analyzer]; ok {
				return reason, true
			}
		}
	}
	return "", false
}

// posKey formats a position for human output.
func (p Position) String() string {
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}
