#!/bin/sh
# Full verification gate: build, tests (including the golden-file suite
# and property tests), vet, formatting, and the race detector over the
# concurrency-bearing packages. Run from anywhere in the repo.
set -e
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== go test (unit + golden + property)"
go test ./...

# perfbench is a separate Go module (it imports this one through a
# replace directive), so the root ./... skips it; its smoke test runs
# every benchmark workload at a tiny size and catches API changes that
# break the benchmark build.
echo "== perfbench smoke test"
(cd perfbench && go test ./...)

# Bounded fuzz smoke: the three untrusted-input parsers (layout JSON
# read by every tool, the job server's request body, SPICE decks) each
# get a short mutation run on top of their seed corpora.
echo "== fuzz smoke (10s per target)"
go test ./internal/layoutio -run '^$' -fuzz '^FuzzLayoutJSON$' -fuzztime 10s
go test ./internal/serve -run '^$' -fuzz '^FuzzJobRequest$' -fuzztime 10s
go test ./internal/circuit -run '^$' -fuzz '^FuzzParseSPICE$' -fuzztime 10s

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# The fasthenry package includes the iterative-sweep race coverage: a
# shared ACA-compressed operator driven by parallel frequency workers;
# engine runs two concurrent sessions with conflicting configs; extract
# builds nested-basis operators from concurrent goroutines sharing one
# kernel cache; geom races parallel cluster-tree builds over one index;
# serve drives the multi-tenant job server with conflicting tenant
# configs over the shared bounded cache and mid-stream disconnects;
# matrix runs concurrent multigrid V-cycles with conflicting worker
# counts against one shared hierarchy; grid covers the streaming
# assembly feeding worker-parallel MG solves; sweep stresses the
# adaptive refine loop under parallel batch solvers; mesh pins the
# lowering's determinism contract under parallel cluster-tree builds
# over plane filament grids.
echo "== race detector (matrix, geom, extract, fasthenry, sim, engine, serve, grid, sweep, mesh)"
go test -race ./internal/matrix ./internal/geom ./internal/extract ./internal/fasthenry ./internal/sim ./internal/engine ./internal/serve ./internal/grid ./internal/sweep ./internal/mesh

# The compressed operators hand each apply a pooled workspace; eight
# goroutines sharing one operator must still match the serial apply
# bit for bit, repeated so the race detector sees many interleavings.
echo "== race detector, repeated (shared compressed-operator apply)"
go test -race -count=10 -run '^TestLOperatorApplyConcurrent$' ./internal/fasthenry

# Keep the apply benchmark building and running (one iteration each).
echo "== apply benchmark smoke"
go test -run '^$' -bench LOperatorApply -benchtime 1x ./internal/fasthenry

# No new mutable package-level tuning state: process-wide Set* switches
# are frozen to the three deprecated shims (matrix.SetWorkers,
# sim.SetSparseThreshold, extract.SetKernelCache), and no solver carries
# setter methods for its configuration any more. Run configuration
# belongs in engine.Config / the per-layer option structs.
echo "== no new package-level Set* tuning switches"
setters=$(grep -rnE '^func Set[A-Z]' internal cmd --include='*.go' \
	| grep -v '_test\.go' \
	| grep -v 'internal/matrix/workers\.go' \
	| grep -v 'internal/sim/sparse\.go' \
	| grep -v 'internal/extract/cache\.go' || true)
if [ -n "$setters" ]; then
	echo "new package-level setter(s) found (use engine.Config instead):" >&2
	echo "$setters" >&2
	exit 1
fi

# Sweep-mode selection flows through engine.Config (SweepMode/SweepTol,
# parsed via engine.ParseSweepMode): no CLI constructs adaptive sweeps
# by importing internal/sweep directly.
echo "== no cmd/ imports of internal/sweep (use engine.Config)"
direct=$(grep -rn 'inductance101/internal/sweep' cmd --include='*.go' || true)
if [ -n "$direct" ]; then
	echo "cmd/ must configure sweeps through engine.Config, not internal/sweep:" >&2
	echo "$direct" >&2
	exit 1
fi

# Plane meshing flows through engine.Config (PlaneNW, validated
# fail-fast via mesh.ValidatePlaneNW): no CLI lowers geometry by
# importing internal/mesh directly — the lowering is the solvers'
# internal representation, not a command-line surface.
echo "== no cmd/ imports of internal/mesh (use engine.Config)"
direct=$(grep -rn 'inductance101/internal/mesh' cmd --include='*.go' || true)
if [ -n "$direct" ]; then
	echo "cmd/ must configure plane meshing through engine.Config, not internal/mesh:" >&2
	echo "$direct" >&2
	exit 1
fi

echo "CI OK"
