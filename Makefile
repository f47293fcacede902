# Tier-1 verification: build + full test suite, static analysis (of the
# benchmark module too, which the root `go test ./...` never compiles, so
# a change deleting something the benchmark reads fails here rather than
# at benchmark time), gofmt cleanliness, and the race detector over the
# concurrent packages (the harness worker pool and the tv pipeline it
# drives).
.PHONY: tier1 build test vet benchvet fmtcheck race bench benchall

tier1: build test vet benchvet fmtcheck race

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

benchvet:
	cd benchmark && go vet ./...

fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; exit 1; fi

# The harness escalation-ladder/proof tests are CPU-bound and can exceed go
# test's default 10m package timeout under -race on small machines;
# the raised timeout does not mask races, which fail immediately.
race:
	go test -race -timeout 30m ./internal/harness ./internal/tv ./internal/telemetry ./internal/smt ./internal/store ./internal/tvd

# bench reproduces the Figure 6 comparisons — cache on/off, proof
# emission on/off, tracing on/off, inprocessing/portfolio ablations,
# cube-and-conquer tail legs with the escalation ladder on/off, cold vs warm
# daemon runs against the persistent result store — and writes the
# machine-readable artifacts BENCH_PR2.json, BENCH_PR3.json,
# BENCH_PR5.json, BENCH_PR6.json, BENCH_PR8.json, and BENCH_PR9.json.
# BENCH_PR7.json (legacy vs streaming certificates) is frozen history:
# the legacy writers it compared are gone.
bench:
	go test -run '^$$' -bench 'BenchmarkFigure6' -benchtime 1x .
	WRITE_BENCH_JSON=1 go test -timeout 60m -run 'TestBenchPR2JSON|TestBenchPR3JSON|TestBenchPR5JSON|TestBenchPR6JSON|TestBenchPR8JSON|TestBenchPR9JSON' -v .

benchall:
	go test -bench=. -benchmem
