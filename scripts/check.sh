#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, vet, and the full test
# suite under the race detector (a farm runs VMs on concurrent goroutines
# over one shared translation store; -race is the tier-1 bar, not an extra),
# then the contract, cmsbench, fuzz and coverage checks below. It starts no
# background process and binds no port.
#
# Usage: scripts/check.sh
set -eu
cd "$(dirname "$0")/.."
gate_start=$(date +%s)

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go test -race ./...

# The contracts below ran once already, under -race, in the full suite
# above: the backend differential (identical state, Metrics and cache
# statistics on every workload, executed interpretively, through the vliw
# step arrays and through the risc register IR — plus its mutation test),
# internal/bench importing no clock, the farm differentials (solo and
# in-farm runs byte-identical over the shared store), the shared-store
# torture test and its admission contract (a first miss waits on probation,
# a second request promotes, overflow remembers the key in a ghost ring, one
# budget spans both segments, and residency stays flat under one-off
# traffic), the fault-containment chaos capstone, and the translator's three
# (below). Running them again by name bought nothing; what the by-name
# lines guarded against is a contract being renamed away or dropped, and a
# -list check catches that without executing anything.
require_tests() {
	pkg=$1
	shift
	listed=$(go test -list '.*' "$pkg")
	for name in "$@"; do
		if ! printf '%s\n' "$listed" | grep -qx "$name"; then
			echo "check.sh: $pkg no longer has $name" >&2
			exit 1
		fi
	done
}
require_tests ./internal/farm/ TestFarmDifferential TestChaosServing \
	TestRecycledVMDifferential TestRecycledVMCanary TestStoreFlatUnderUniqueTraffic
require_tests ./internal/tcache/ TestSharedStoreTorture TestSharedStoreBudgetIsGlobal \
	TestSharedStoreAdmission TestSharedStoreGhostAdmits TestSharedStoreGhostRingBounded \
	TestSharedStoreBudgetSpansSegments
require_tests ./internal/bench/ TestBackendDifferential \
	TestBackendDifferentialCatchesWrongCarry TestBenchIsClockFree
# The translator's working memory is pooled across goroutines. What licenses
# that: the emitted code of the corpus is pinned to a digest, translating
# beside other goroutines and on a junk-filled scratch changes nothing (the
# full suite above ran this one under -race), and a translation allocates
# its output only (skipped under -race, where sync.Pool drops at random; the
# coverage run of internal/xlate below executes it). IRET is translated as
# an indirect transfer: traces end after it, an iret-only handler
# translates, HLT and INT stay with the interpreter, and the lowering pops
# EIP then EFLAGS under POPF's mask and matches the interpreter.
require_tests ./internal/xlate/ TestTranslatorOutputDigest TestScratchPoolSafety \
	TestTranslateAllocCeiling TestTraceEndsAfterIRET TestIRETOnlyHandlerTranslates \
	TestRegionRejectsSystemEntry TestIRETLowering TestIRETMatchesInterpreter
# Interrupt delivery's RAM fast path leaves exactly the state the checked
# path leaves, across every case that must fall back to it.
require_tests ./internal/interp/ TestDeliveryFastPathIsExact
# Guest RAM is backed page by page on first write: reads never back a page,
# a page's first word store is one generation step like any other, Reset
# keeps zeroed backings for the next tenant, and building a VM allocates
# none of its RAM (skipped under -race; the coverage run of internal/cms
# below executes it).
require_tests ./internal/mem/ FuzzBusResetComplete TestReadsLeavePagesUnbacked \
	TestFirstWriteBacksPage TestResetReusesBackings BenchmarkBusFastPaths
# The engine: a VM's construction ceiling; forward progress — whenever pure
# interpretation halts, translated execution halts too, with the same state;
# the dispatcher's books — every translated episode returns once, and the
# dispatch molecules are exactly the lookups' and returns' charges; and a
# timer handler's IRET returning through translated code, leaving a latched
# interrupt pending when it restores IF clear, and faulting genuinely.
require_tests ./internal/cms/ TestConstructionAllocCeiling TestTranslationAddsNoLivelock \
	TestDispatchLedgerBalances TestTranslatedIRETTimer TestIRETWithIFClearLeavesIRQPending \
	TestIRETPopFaultIsGenuine
# The compiled executor's two structural licences — the gated store buffer
# against a byte-map model (its summaries are exact, its forwarding right),
# and every molecule of a run entered directly, with and without an interrupt
# arriving mid-run — and the ceiling on what Compile allocates per atom
# (skipped under -race; the coverage run of internal/vliw below executes it).
require_tests ./internal/vliw/ TestStoreBufferModel TestCompiledEveryRunEntry \
	TestCompileAllocCeiling
# The serving daemon, in-process through main's serve path: migration, the
# chaos incident round trip, both drain modes, a lossy drain failing, and the
# production defaults running the suite without poisoning a shared key.
require_tests ./cmd/cmsserve/ TestMigrate TestChaosIncidentReplays TestDrain \
	TestCheckpointDrain TestCheckpointDrainLostJobsFail TestDefaultDaemonPoisonsNothing

# The bus word paths translated code calls per access must stay inlinable:
# a page's first-write allocation lives out of line for that reason, and a
# change that pulls it (or anything else) back in shows up here, not as a
# few percent on the benchmark.
inl=$(go build -gcflags=-m ./internal/mem/ 2>&1)
for fn in LoadRAM32 StoreRAM32 FastRead FastWrite; do
	if ! printf '%s\n' "$inl" | grep -q "can inline (\*Bus).$fn\$"; then
		echo "check.sh: (*mem.Bus).$fn is no longer inlinable" >&2
		exit 1
	fi
done

# Tenant isolation is the one contract that IS run again by name: runners
# recycle their guest RAM, and job B after job A (halted, panicked, retried,
# timed out, checkpointed away, restored from a hostile envelope) must be
# byte-identical to B on a brand-new farm. A failure here must read as
# "recycling leaks", not as one line among the full suite's.
go test -race -count=1 -run 'TestRecycledVM' ./internal/farm/

# cmsbench prints the paper's figures and tables, every number a function
# of simulated Metrics: two runs must print the same bytes.
benchdir="${TMPDIR:-/tmp}/cms-bench"
mkdir -p "$benchdir"
go build -o "$benchdir/cmsbench" ./cmd/cmsbench
"$benchdir/cmsbench" >"$benchdir/run1"
"$benchdir/cmsbench" >"$benchdir/run2"
cmp "$benchdir/run1" "$benchdir/run2"
echo "check.sh: cmsbench output deterministic"

# Generative fuzzer smoke: sweep 64 seeds through the full differential
# oracle — six straight runs per seed (interp, xlate, compiled, the risc
# register-IR backend, two shared-store runs) plus four random-boundary
# snapshot legs. A divergence writes a shrunk reproducer to
# internal/fuzzer/testdata/corpus/ and fails the gate.
go run ./cmd/cmsfuzz -seeds 64

# Native fuzz targets, a short session each: the ISA codec canonicality
# property, the bus fast-path/checked-path agreement property, the bus
# reset-completeness property (any op stream, then Reset, equals NewBus
# field by field), and the three-executor (interpreted / compiled /
# risc-lowered) equivalence of synthesized atom codes.
go test -run '^$' -fuzz FuzzDecodeEncodeRoundtrip -fuzztime 5s ./internal/guest/
go test -run '^$' -fuzz FuzzBusReadWrite -fuzztime 5s ./internal/mem/
go test -run '^$' -fuzz FuzzBusResetComplete -fuzztime 5s ./internal/mem/
go test -run '^$' -fuzz FuzzRiscLowerRoundtrip -fuzztime 5s ./internal/risc/

# Coverage floors for the engine and translator, set just under the value
# measured when the gate was introduced (cms 82.0%, xlate 84.5%): new code
# in either package must bring tests along.
cover_gate() {
	# This is also the gate's only run without -race, where tests that
	# count allocations are not skipped: a failing test fails the gate.
	if ! out=$(go test -cover -count=1 "$1"); then
		printf '%s\n' "$out" >&2
		exit 1
	fi
	pct=$(printf '%s\n' "$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$pct" ]; then
		echo "check.sh: no coverage figure for $1" >&2
		exit 1
	fi
	if [ "$(echo "$pct $2" | awk '{print ($1 < $2) ? 1 : 0}')" = 1 ]; then
		echo "check.sh: coverage for $1 fell to $pct% (floor $2%)" >&2
		exit 1
	fi
	echo "check.sh: coverage $1 $pct% (floor $2%)"
}
# This run also executes TestConstructionAllocCeiling.
cover_gate ./internal/cms/ 78.0
cover_gate ./internal/xlate/ 80.0
# The compiled executor (92.5% when its step loop went in); this run is also
# what executes TestCompileAllocCeiling.
cover_gate ./internal/vliw/ 88.0
# The bus (91.2% when its RAM went page by page): every guest access, the
# reset and snapshot walks and the first-write path run through it.
cover_gate ./internal/mem/ 88.0
# The risc backend is held to a higher floor: it is a from-scratch second
# executor whose only consumer protection is its tests (95.9% measured).
cover_gate ./internal/risc/ 94.0
# The serving daemon (70.8% when its lifecycle became serve; 33.1% before,
# when only the HTTP handlers were reachable from a test).
cover_gate ./cmd/cmsserve/ 70.0

echo "check.sh: all green in $(($(date +%s) - gate_start))s"
