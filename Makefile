GO ?= go
BENCH_COUNT ?= 1
TORTURE_ROUNDS ?= 24
TORTURE_SEED ?= 7
REAL_ROUNDS ?= 20

.PHONY: check fmt vet build test kernelonly fsysonly lockcpu corecpu enginecpu walcpu elide pagefile walfuzz race benchbuild expbuild benchsmoke bench benchpair benchdiff torture realcrash churn loc

## check: everything CI runs — gofmt, vet (the nested benchmark module
## included), build, tests, the race detector over
## the concurrency-critical packages (including the commit-pipeline and
## early-lock-release tests in internal/wal and internal/txn), a
## compile+link of every benchmark binary (run with zero iterations) so
## bench-only code can't rot between bench runs, a compile+link of the
## experiment runner (T1–T12, F1, F2 live outside _test files), a short
## seeded fault-injection torture run, the real-crash (SIGKILL) recovery
## gate over real files, the sustained-churn steady-state gate, the lock
## manager's tests at 1, 2 and 4 CPUs (its deadlock-detector bugs never
## showed at one), the three trees', the kernel's, the engine's and the
## log, restart and transaction packages' likewise, the write-elision
## tests of the pool and the engine likewise, the page file's block
## allocator against its crash model and a short fuzz of its open path,
## short fuzzes of the log's record decoder
## and segment replay, of its master record, of the checkpoint payload, of
## the node record buffer's loader, of the three trees'
## structure-change payload decoders and page images at every level, and of
## the kernel's root growth's,
## the repo benchmark's own smoke test (a nested module `go test ./...`
## does not enter), a count of the kernel-only call sites in the three
## trees, and a check that the page file and the log reach the operating
## system only through internal/fsys.
check: fmt vet build test kernelonly fsysonly lockcpu corecpu enginecpu walcpu elide pagefile walfuzz race benchbuild expbuild benchsmoke torture realcrash churn

## fmt: fails if gofmt would change any Go file of the module or of the
## nested benchmark module, and lists them (build output and run data
## under .bench_build/ and benchmark/out/ are not walked).
fmt:
	@out=$$(gofmt -l *.go cmd examples internal benchmark/*.go); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## kernelonly: the paths the kernel owns stay there. Counts call
## sites in the non-test files of internal/{core,tsb,spatial} and fails
## past each limit:
##   PrefetchAsync(      0  read-ahead is step 4 of pitree.Kernel.Scan, the
##                          one leaf walk of every scan;
##   .LogCLR(            0  every logical undo is pitree.Kernel.Compensate,
##                          which logs each CLR — a TSB put's removals,
##                          re-carries and terminal CLR included;
##   BeginAtomicAction(  0  every action begins in Op.Atomic, in
##                          Kernel.Update, or in the kernel's wait for a new
##                          page's stale move lock (Kernel.Split);
##   SpaceCheck(         0  the free-space cross-check of pitree.Kernel.Verify,
##                          the one well-formedness walk of every tree;
##   IsAllocated(        0  Kernel.Verify's, and Kernel.Responsible's, the
##                          re-test of a posting's child;
##   FPConsolidate       0  probed by pitree.Kernel.Absorb, the one action
##                          that frees a node in every tree;
##   store.Free(         0  every node is freed by Absorb; the page a split
##                          gives back when its move lock is taken is
##                          Kernel.Split's;
##   RootGrow(           0  no tree encodes, decodes or applies a root growth:
##                          pitree.Kernel.Split logs it at the root,
##                          NodeKinds.Register redoes and undoes it;
##   Grow(               0  no tree grows the root itself: Kernel.Split does;
##   SiblingImage(       0  no tree reads a split's sibling image: the undo
##                          NodeKinds.Register installs hands it to the cut;
##   .LogUpdate( naming a split kind  0  every split record
##                          (KindSplitTruncate, KindTimeSplit, KindKeySplit,
##                          KindIndexKeySplit, KindSplitOff) is logged by
##                          pitree.Kernel.Split, the one split of every node;
##   .Len() >=/< …Capacity  3  the index fan-out of each tree's Poster.Full
##                          (IndexCapacity). A node is full when its image
##                          would outgrow its page (pitree.Kernel.Fits);
##                          a data node's entry cap (LeafCapacity,
##                          DataCapacity) is an optional test option read
##                          beside that test, never compared with Len alone.
KERNELONLY_SRC = $(filter-out %_test.go,$(wildcard internal/core/*.go internal/tsb/*.go internal/spatial/*.go))
kernelonly:
	@check() { n=$$(cat $(KERNELONLY_SRC) | grep -c -F "$$1"); \
		if [ $$n -gt $$2 ]; then echo "kernelonly: $$n call sites of $$1 in core/tsb/spatial, limit $$2"; return 1; fi; }; \
	check 'PrefetchAsync(' 0 && check '.LogCLR(' 0 && check 'BeginAtomicAction(' 0 && \
	check 'SpaceCheck(' 0 && check 'IsAllocated(' 0 && check 'FPConsolidate' 0 && check 'store.Free(' 0 && \
	check 'RootGrow(' 0 && check 'Grow(' 0 && check 'SiblingImage(' 0 && { \
	n=$$(cat $(KERNELONLY_SRC) | grep -c -E '\.LogUpdate\(.*Kind(SplitTruncate|TimeSplit|KeySplit|IndexKeySplit|SplitOff)\b'); \
	if [ $$n -gt 0 ]; then echo "kernelonly: $$n split records logged in core/tsb/spatial, limit 0"; exit 1; fi; } && { \
	n=$$(cat $(KERNELONLY_SRC) | grep -c -E '\.Len\(\) *(>=|<) *[A-Za-z_.]*Capacity'); \
	if [ $$n -gt 3 ]; then echo "kernelonly: $$n entry-count capacity tests in core/tsb/spatial, limit 3"; exit 1; fi; }

## fsysonly: one storage path. The page file and the log run over an
## fsys.FS, the operating system's or an in-memory one, so a simulated
## crash recovers the same files a real one does. Fails on any direct file
## system or system call in the non-test files of internal/storage and
## internal/wal; the limit is 0 (internal/fsys holds the OS calls).
FSYSONLY_SRC = $(filter-out %_test.go,$(wildcard internal/storage/*.go internal/wal/*.go))
fsysonly:
	@n=$$(cat $(FSYSONLY_SRC) | grep -c -E 'os\.OpenFile|os\.Open\(|os\.Rename|os\.Remove|os\.ReadDir|os\.ReadFile|os\.Truncate|os\.MkdirAll|syscall\.'); \
	if [ $$n -gt 0 ]; then echo "fsysonly: $$n direct OS calls in internal/storage or internal/wal, limit 0"; exit 1; fi

## lockcpu: the lock package at -cpu 1,2,4, repeated: waits-for edges that
## outlive their wait only misfire when a second CPU runs the granter and
## the waiter at once.
lockcpu:
	$(GO) test -cpu 1,2,4 -count 10 ./internal/lock

## corecpu: the three trees, the protocol kernel and the latches with
## the tracker every operation records its holds in, at -cpu 1,2,4,
## repeated: a deadlock between two transactions' splits (each atomic
## action waiting for the other transaction's page lock), or a completion
## worker running a posting that was queued too early, needs a second CPU
## to form.
corecpu:
	$(GO) test -cpu 1,2,4 -count 5 ./internal/core ./internal/pitree ./internal/tsb ./internal/spatial ./internal/latch

## enginecpu: the engine at -cpu 1,2,4, repeated: Checkpoint and the
## background writer's tick apply one write-back rule to the same pools,
## and only a second CPU runs them at once.
enginecpu:
	$(GO) test -cpu 1,2,4 -count 5 ./internal/engine

## walcpu: the log, restart and transaction packages at -cpu 1,2,4,
## repeated: appenders reserve and publish log space concurrently, and
## group commit's write and sync stages overlap, only when a second CPU
## runs them at once.
walcpu:
	$(GO) test -cpu 1,2,4 -count 5 ./internal/wal ./internal/recovery ./internal/txn

## elide: write elision at -cpu 1,2,4, repeated: the pool's model test
## (fetch, update, evict, flush, drop, crash and restart against a map,
## with failing writes and replays), its chain-cap, reuse, broken-chain
## and drop-during-write-back tests, the dirty page table's tests (its
## heap holds the elided pages too), and the engine's horizon and shutdown
## tests. A fetch that waits on another's replay, and a Drop that lands
## while the writer rebuilds the page, need a second CPU to meet. The
## chain walk a replay runs has a second user, restart redo, so the
## serial/parallel restart equivalence test runs likewise. Then one
## iteration of core's replay benchmark (BenchmarkReplay: ns per replayed
## record of an elided leaf), so that it keeps building and running.
elide:
	$(GO) test -cpu 1,2,4 -count 10 ./internal/storage -run 'TestPoolModel|TestElide|TestPrefetch|TestDirty'
	$(GO) test -cpu 1,2,4 -count 10 ./internal/engine -run 'TestElidedPageHoldsHorizon|TestCloseLeavesNothingElided'
	$(GO) test -cpu 1,2,4 -count 10 ./internal/recovery -run TestSerialParallelEquivalence
	$(GO) test ./internal/core -run '^$$' -bench Replay -benchtime 1x

## pagefile: the page file's tests at -cpu 1,2,4, repeated (the model-based
## crash test of the block allocator, with 256-byte and 16 KiB slots so that
## frames of 1 to 4 blocks are allocated, split, coalesced, torn and
## re-elected; a forged frame left at a block boundary by a reused extent;
## FuzzOpenFileDisk's seeds; and reads racing a demand sync), then ten
## seconds of arbitrary bytes through OpenFileDisk. Minimizing each new
## input would otherwise eat most of the ten seconds.
pagefile:
	$(GO) test -cpu 1,2,4 -count 20 ./internal/storage -run FileDisk
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzOpenFileDisk -fuzztime 10s -fuzzminimizetime 1s

## walfuzz: ten seconds each of arbitrary bytes through the log's record
## decoder and segment replay (ErrCorruptRecord or a clean prefix, never a
## panic), its master record (the exact bytes or no record), the checkpoint
## payload (ErrCorruptCheckpoint), the loader of a node's record buffer
## (ErrTruncated, every slot inside the input), each tree's decoders of
## the structure-change payloads restart undo reads, each tree's page codec
## under every level's record layout, and the kernel's decoder of a root
## growth (an error, never a panic or an allocation sized by an unchecked
## count).
walfuzz:
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzMasterRecord -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/recovery -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/enc -run '^$$' -fuzz FuzzRecordsLoad -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSlimPayloads -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/tsb -run '^$$' -fuzz FuzzSlimPayloads -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/spatial -run '^$$' -fuzz FuzzSlimPayloads -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzNodeImage -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/tsb -run '^$$' -fuzz FuzzNodeImage -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/spatial -run '^$$' -fuzz FuzzNodeImage -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/pitree -run '^$$' -fuzz FuzzGrowPayload -fuzztime 10s -fuzzminimizetime 1s

race:
	$(GO) test -race ./internal/storage ./internal/wal ./internal/latch ./internal/pitree ./internal/core ./internal/lock ./internal/txn ./internal/tsb ./internal/spatial ./internal/recovery ./internal/engine ./internal/maint

benchbuild:
	$(GO) test -run '^$$' -bench '^$$' ./... >/dev/null

## expbuild: compile+link the experiment runner so cmd/pitree-bench and
## the paper's experiments in internal/bench can't rot: experiments
## are plain package code, not _test files, so `test` alone won't catch
## a broken command until the next full bench run.
expbuild:
	$(GO) build -o /dev/null ./cmd/pitree-bench

## benchsmoke: the benchmark module's tests — every workload run small,
## end to end, through benchmark/'s own driver.
benchsmoke:
	cd benchmark && $(GO) test ./...

## benchpair: alternated runs of one benchmark workload at the commits
## PARENT and HEAD, for a claimed gain or a trajectory point. Both sides
## are built from `git archive` in a temporary directory (set TMPDIR to
## choose where), so a point names the two commits it measured and
## uncommitted work is not measured: commit it first. Every run is the
## benchmark's own, 10 s untraced. Odd pairs run the parent first, even
## pairs the change. Each run's result file is copied to
## benchmark/out/result-<WL>.<parent|change>.<n>.json (earlier labelled
## files of WL are removed first), which cmd/benchtraj folds:
##   make benchpair WL=crash-restart SEED=7 PAIRS=10 PARENT=HEAD~1
##   go run ./cmd/benchtraj -pr <N> -parent $(git rev-parse HEAD~1) \
##     -change $(git rev-parse HEAD) -o BENCH_pr<N>.json benchmark/out/result-*.json
WL ?= crash-restart
SEED ?= 1
PAIRS ?= 10
PARENT ?= HEAD~1
benchpair:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	echo "benchpair: parent $$(git rev-parse $(PARENT)), change $$(git rev-parse HEAD)"; \
	mkdir -p "$$tmp/parent" "$$tmp/change"; \
	git archive $(PARENT) | tar -x -C "$$tmp/parent"; \
	git archive HEAD | tar -x -C "$$tmp/change"; \
	mkdir -p benchmark/out; \
	rm -f benchmark/out/result-$(WL).parent.*.json benchmark/out/result-$(WL).change.*.json; \
	for i in $$(seq 1 $(PAIRS)); do \
		order="parent change"; [ $$((i % 2)) -eq 0 ] && order="change parent"; \
		for side in $$order; do \
			(cd "$$tmp/$$side" && bash benchmark/run.sh --workload $(WL) --seed $(SEED) \
				--seconds 10 --trace 0 >/dev/null); \
			cp "$$tmp/$$side/benchmark/out/result-$(WL).json" benchmark/out/result-$(WL).$$side.$$i.json; \
			echo "benchpair: $(WL) seed $(SEED) pair $$i $$side done"; \
		done; \
	done

## benchdiff: judges the newest trajectory point, BENCH_pr<N>.json with
## the highest N: one line per workload and gated metric (BENCHMARK.json's
## end_to_end list) with the parent's and the change's medians, and a
## failure when a change median is worse than its parent's by more than the
## metric's bound, or when a workload lacks a gated metric on either side.
benchdiff:
	@f=$$(ls BENCH_pr*.json | sort -V | tail -n 1); echo "benchdiff: $$f"; $(GO) run ./cmd/benchtraj -check "$$f"

## torture: seeded crash-point fault-injection rounds across all three
## access methods. Failures print the reproducing seed and failpoint.
## Then five runs of seed 11, 13 rounds, at GOMAXPROCS=2 (well under a
## second each; a 30 s timeout ends a hung one): the reproducer of a
## merge whose failed commit waited for the parent latch its own sweep
## held, which hung about one run in five.
torture:
	$(GO) run ./cmd/pitree-verify -torture -rounds $(TORTURE_ROUNDS) -seed $(TORTURE_SEED)
	@d=$$(mktemp -d) && $(GO) build -o $$d/pitree-verify ./cmd/pitree-verify && \
	for i in 1 2 3 4 5; do \
		GOMAXPROCS=2 timeout 30 $$d/pitree-verify -torture -seed 11 -rounds 13 > $$d/out 2>&1 || \
			{ cat $$d/out; rm -rf $$d; echo "torture: seed 11 run $$i failed"; exit 1; }; \
	done; rm -rf $$d; echo "torture: seed 11, 13 rounds, 5 runs at GOMAXPROCS=2 ok"

## realcrash: each round runs a seeded workload in a forked child
## against real WAL segments and page files, SIGKILLs it at a seeded
## moment — every fourth round inside Engine.Close, between its flush,
## its shutdown checkpoint and the segment unlinks — then recovers in
## the parent and audits the streamed ack oracle: acked commits durable,
## no ghosts, space map exact.
realcrash:
	$(GO) run ./cmd/pitree-verify -torture -real -rounds $(REAL_ROUNDS) -seed $(TORTURE_SEED)

## churn: sustained-churn steady-state gate — a rolling key window turned
## over repeatedly must leave the store size flat with pages recycled.
## Two legs: core (insert at the window's head, delete at its tail, with
## consolidation) and tsb at GC on (a new version of every key per
## turnover: with snapshots pinned GC must free the history it retires;
## unpinned, full nodes prune and no history node may exist). The plateau bound,
## against the store after turnover 1: allocated pages and page ids in
## use each within 8, and the page file's blocks within the file's own
## bound (storage.FileDiskStats.Bound: live + live/8 + 64 largest frames,
## live being the blocks of the pages' images), or at most what they were
## after turnover 1.
churn:
	$(GO) run ./cmd/pitree-verify -churn

## loc: non-test Go lines per internal package — the number ROADMAP's
## "least code" aim tracks. Raw lines, comments and blanks included, so a
## change cannot shrink it by stripping comments without that showing in
## the diff. The last lines are the three trees plus their kernel, the sum
## ROADMAP's target is stated in, and the storage path: the page file and
## pool, the log, the file system under both, and the engine over them.
loc:
	@for d in internal/*/; do \
		printf '%-10s %6d\n' $$(basename $$d) $$(cat $$(ls $$d*.go | grep -v _test.go) | wc -l); \
	done
	@printf '%-10s %6d\n' core+tsb+spatial+pitree $$(cat $$(ls internal/core/*.go internal/tsb/*.go internal/spatial/*.go internal/pitree/*.go | grep -v _test.go) | wc -l)
	@printf '%-10s %6d\n' storage+wal+fsys+engine $$(cat $$(ls internal/storage/*.go internal/wal/*.go internal/fsys/*.go internal/engine/*.go | grep -v _test.go) | wc -l)

## bench: all microbenchmarks with allocation stats (root experiment
## benchmarks plus the lock/txn/wal substrate benchmarks). Set
## BENCH_COUNT>1 for variance estimates. -cpu 1,4 runs the traversal
## micro-benchmarks both uncontended and parallel; read 1-CPU numbers
## with the caveat in bench_test.go.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1s -cpu 1,4 -count $(BENCH_COUNT) ./...
