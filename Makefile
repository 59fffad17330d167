# Single-entry developer targets, used verbatim by CI so local runs and
# the pipeline cannot drift.

GO ?= go

.PHONY: lint lint-json docs build test race fuzz bench

# lint is the one gate for static checks: gofmt over the tracked Go
# files, go vet, and the repository's own determinism & concurrency
# suite (cmd/sdamvet, 8 rules — see `go run ./cmd/sdamvet -list`).
lint:
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	$(GO) vet ./...
	$(GO) run ./cmd/sdamvet ./...

# lint-json re-runs the sdamvet suite with machine-readable output; CI
# uploads the resulting findings file as an artifact even on failure.
lint-json:
	$(GO) run ./cmd/sdamvet -json ./... > sdamvet-findings.json

# docs checks the documentation against the code: every relative
# markdown link resolves, every annotated flag table matches the flags
# its command actually registers, DESIGN.md's section numbering is
# monotonic, and docs/OBSERVABILITY.md's metric catalog lists exactly
# the registered metrics (see cmd/sdamdocs).
docs:
	$(GO) run ./cmd/sdamdocs

# build also vets the benchmark module (perfbench/, a nested module
# that ./... does not reach), so a change to the API it uses fails here.
build:
	$(GO) build ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# fuzz smoke: 10 s of coverage-guided fuzzing per artifact loader (the
# profile and trace-file formats read from disk). go test fuzzes one
# package per call.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s ./internal/profile
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s ./internal/tracefile

# bench smoke: the simulator hot path (engine, tape replay, the
# profiling pass, vm translation, L1 cache lookup, the engine's MSHR
# window) plus the DL selector's two
# training-cost benchmarks (the select_ms story lives in internal/f64's
# lane-fused kernels; TrainJoint isolates the training loop, SelectDL
# times the whole selection pipeline).
bench:
	$(GO) test -bench='HotPath|TrainJoint|SelectDL' -benchtime=1x -run='^$$' . ./internal/vm ./internal/cache ./internal/cpu ./internal/nn ./internal/cluster
