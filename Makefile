# Tier-1 verification and bench smoke for the Visualinux reproduction.
#
#   make ci            gofmt check + vet + build + race tests + fuzz smoke
#                      + bench smoke
#   make fmt           fail if any Go file is not gofmt-clean (lists them)
#   make test          fast test sweep (no race detector)
#   make bench         the root benchmarks (tables, ablations, extraction
#                      microbenchmarks), the ViewCL engine pairs in
#                      internal/viewcl and the pane serializers in
#                      internal/render, 1 iteration each
#   make bench-smoke   one Table 2 extraction benchmark, plus vet and the
#                      smoke tests of the loopback benchmark under bench/
#                      (its full runs and A/B gate: bench/README.md)
#   make table4        print the paper's Table 4 (+ cache before/after) and
#                      run the §5.4 shape checks
#   make ledger        rewrite LEDGER.json, every host-independent count the
#                      tests pin (link traffic, steady-state report, wire
#                      digests, step_look figure ledger)
#   make fuzz-smoke    every Fuzz* target in the module (found with
#                      `go test -list`), 5 s each; committed corpus seeds
#                      always run

GO ?= go

.PHONY: ci fmt test race vet build bench bench-smoke fuzz-smoke table4 ledger

ci: fmt vet build race fuzz-smoke bench-smoke

fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for fz in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$fz"; \
			$(GO) test -fuzz="^$$fz\$$" -fuzztime=5s -run="^$$fz\$$" $$pkg; \
		done; \
	done

bench-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkTable2Extract -benchtime=1x .
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x . ./internal/viewcl ./internal/render

table4:
	$(GO) run ./cmd/perfbench

ledger:
	$(GO) test ./internal/perf -run '^TestLedger$$' -update
