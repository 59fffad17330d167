# Single-entry developer targets, used verbatim by CI so local runs and
# the pipeline cannot drift.

GO ?= go

.PHONY: lint lint-json docs build test race bench

# lint is the one gate for static checks: gofmt over the tracked Go
# files, go vet, and the repository's own determinism & concurrency
# suite (cmd/sdamvet, 9 rules — see `go run ./cmd/sdamvet -list`).
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
# its command actually registers, and DESIGN.md's section numbering is
# monotonic (see cmd/sdamdocs).
docs:
	$(GO) run ./cmd/sdamdocs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# bench smoke: the simulator hot path plus the DL selector's two
# training-cost benchmarks (the select_ms story lives in internal/f64's
# lane-fused kernels; TrainJoint isolates the training loop, SelectDL
# times the whole selection pipeline).
bench:
	$(GO) test -bench='HotPath|TrainJoint|SelectDL' -benchtime=1x -run='^$$' . ./internal/vm ./internal/nn ./internal/cluster
