#!/usr/bin/env sh
# Lint gate: gofmt, stock go vet, the repo's own skallavet analyzer suite
# (tools/skallavet) over both modules, the stale-suppression audit, the tools
# module's tests so the analyzers themselves stay green, and the benchmark
# module's vet and tests. Runnable from any cwd; CI runs this exact script.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"

echo "==> gofmt"
# Count offending files explicitly: an output of stray whitespace would pass a
# bare `[ -n ... ]` emptiness test in the other direction (and an empty string
# piped through wc still counts one line), so count non-empty lines.
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
count=$(printf '%s' "$unformatted" | grep -c . || true)
if [ "$count" -ne 0 ]; then
  echo "gofmt needed on $count file(s):"
  echo "$unformatted"
  exit 1
fi

echo "==> go vet (stock analyzers)"
go vet ./...

echo "==> build skallavet"
# The binary is cached keyed on a hash of the tools module's sources (and
# go.mod/go.sum), so repeated lint runs skip the rebuild. The binary embeds a
# self-hash in its vet -V=full answer, so a rebuilt tool also invalidates go
# vet's own result cache without any help from this script.
srchash=$(find tools/skallavet -type f \( -name '*.go' -o -name 'go.mod' -o -name 'go.sum' \) ! -path '*/testdata/*' -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
vettool="${TMPDIR:-/tmp}/skallavet-$srchash"
if [ ! -x "$vettool" ]; then
  go build -C tools/skallavet -o "$vettool" .
fi

echo "==> skallavet (main module)"
go vet -vettool="$vettool" ./...

echo "==> skallavet (tools module)"
(cd tools/skallavet && go vet -vettool="$vettool" ./...)

echo "==> skallavet audit (stale //skallavet:allow directives)"
"$vettool" -audit-allows ./...
(cd tools/skallavet && "$vettool" -audit-allows ./...)

echo "==> tools module tests"
(cd tools/skallavet && go test ./...)

echo "==> benchmark module (vet + tests: the served-path harness and its oracle gate)"
# benchmark/ is a module of its own, so nothing above descends into it.
(cd benchmark && go vet . && go test .)

echo "lint passed"
