#!/bin/sh
# Two-tier verification.
#
#   Tier 1 (default): build + full test suite. The repo's correctness
#   gate; chaos tests run too unless -short is requested via TIER1_SHORT.
#
#   Tier 2 (VERIFY_TIER=2 or "all"): race detector, every test twice.
#   Catches data races in the control/data planes and flakiness in the
#   fault-injection suite (same-seed reruns must behave identically).
#
# Usage:
#   scripts/verify.sh            # tier 1
#   VERIFY_TIER=2 scripts/verify.sh
#   VERIFY_TIER=all scripts/verify.sh
set -eu
cd "$(dirname "$0")/.."

tier="${VERIFY_TIER:-1}"

if [ "$tier" = "1" ] || [ "$tier" = "all" ]; then
	echo "== tier 1: go build ./... && go test ./..."
	go build ./...
	go vet ./...
	echo "== tier 1: flag/doc coverage (scripts/check_docs.sh)"
	scripts/check_docs.sh
	if [ "${TIER1_SHORT:-}" = "1" ]; then
		go test -short ./...
	else
		go test ./...
	fi
fi

if [ "$tier" = "2" ] || [ "$tier" = "all" ]; then
	echo "== tier 2: go test -race -count=2 ./..."
	go test -race -count=2 ./...
	echo "== tier 2: pipelined-scheduler stress (race, repeated; fused narrow chains, call-time LocalData and on-demand local workers included)"
	go test -race -count=4 \
		-run 'Pipeline|Narrow|Barriered|AllExecutorsAgree|Chaos|Fused|LocalDataCopies|IdleLocalExecutor|SubmitAfterClose|UnclosedExecutor' \
		./internal/core ./internal/cluster ./internal/rpcproto
	echo "== tier 2: data-plane stress (race, HTTP/shared x prefetch x resident grid, prefetch-width grid, prefetch chaos, block handoff, in-place reads and adoption, CRC-free resident rewalks)"
	go test -race -count=2 \
		-run 'DataPlane|CodecGrid|CodecSerialMatchesCluster|ParallelFetchByteIdentical|ChaosWithPrefetch|AddBlock|HashPath|GroupsProperty|BlockBucket|ForeignStreams|Fold|HashForm|FoldCadence|FoldArena|InPlace|Adopt|Rewalk|ResidentHitReadsCold|ResidentFillRefusesCorrupt' \
		./internal/cluster ./internal/bucket ./internal/shuffle ./internal/kvio ./internal/core
	echo "== tier 2: two-backing bucket store stress (race, RAM + spilled buckets, serve, local open, GC)"
	go test -race -count=4 \
		-run 'StoreConcurrentStress|DuplicatePublish|RemoveClearsBoth|Spill|OpenOwnURL|RAMBucket|ServeBucketRAM|CorruptBucket|UnlinkCounts|RemoveFile' \
		./internal/bucket
	go test -race -count=2 \
		-run 'PSOChainCreatesNoBucketFiles|LargeBucketsSpillToFiles|JobGC|SharedDirFree' \
		./internal/cluster
	echo "== tier 2: packed text-input stress (race, packer, per-file records, slave death mid packed map)"
	go test -race -count=2 \
		-run 'PackFiles|TextFileData|PackedSplit|PackedWordCount|ChaosPackedMap' \
		./internal/core ./internal/cluster
	echo "== tier 2: block framing fuzz (corpus + 10s of new inputs)"
	go test -run '^$' -fuzz 'FuzzBlockReader' -fuzztime 10s ./internal/kvio
	echo "== tier 2: in-place walker fuzz (kvio.Walk vs kvio.NewAnyReader: same records, same error identity; corpus + 10s)"
	go test -run '^$' -fuzz 'FuzzInPlaceMatchesStream' -fuzztime 10s ./internal/kvio
	echo "== tier 2: control-plane fuzz (scanner vs encoding/xml reference, rpcproto decoders; corpus + 10s each)"
	go test -run '^$' -fuzz 'FuzzUnmarshal' -fuzztime 10s ./internal/xmlrpc
	echo "== tier 2: sorter fuzz (both in-memory forms, Add and AddBlock, spilled, vs a stable-sort reference; corpus + 10s)"
	go test -run '^$' -fuzz 'FuzzSorterGroups' -fuzztime 10s ./internal/shuffle
	echo "== tier 2: WordCount tokenizer fuzz (Map vs bytes.Fields on arbitrary bytes; corpus + 10s)"
	go test -run '^$' -fuzz 'FuzzMapMatchesFields' -fuzztime 10s ./internal/wordcount
	go test -run '^$' -fuzz 'FuzzDecodeAssignment' -fuzztime 10s ./internal/rpcproto
	go test -run '^$' -fuzz 'FuzzDecodeReports' -fuzztime 10s ./internal/rpcproto
	echo "== tier 2: user-codec fuzz (PSO swarms and bests, k-means centroids and partials: allocation bounded by input; corpus + 10s each)"
	go test -run '^$' -fuzz 'FuzzDecodeSwarm' -fuzztime 10s ./internal/pso
	go test -run '^$' -fuzz 'FuzzDecodeBest' -fuzztime 10s ./internal/pso
	go test -run '^$' -fuzz 'FuzzDecodeCentroids' -fuzztime 10s ./internal/kmeans
	go test -run '^$' -fuzz 'FuzzUpdatePartials' -fuzztime 10s ./internal/kmeans
	echo "== tier 2: allocation regression guard (scripts/alloc_thresholds.txt)"
	bench="$(go test -run '^$' -bench 'BenchmarkSorterAdd|BenchmarkSortGroupInMemory|BenchmarkSortGroupUniqueKeys|BenchmarkSortGroupSmall|BenchmarkSortGroupCombineHeavy|BenchmarkSorterCombineZipf' \
		-benchmem -benchtime 100x ./internal/shuffle/
	go test -run '^$' -bench 'BenchmarkKMeansAssign|BenchmarkKMeansUpdate' -benchmem -benchtime 1000x ./internal/kmeans/
	go test -run '^$' -bench 'BenchmarkWordcountMap|BenchmarkWordcountCombine' -benchmem -benchtime 1000x ./internal/wordcount/
	go test -run '^$' -bench 'BenchmarkWriterWrite|BenchmarkReaderRead|BenchmarkBlock|BenchmarkScanInPlace' \
		-benchmem -benchtime 1000x ./internal/kvio/
	go test -run '^$' -bench 'BenchmarkReduceInputInPlace|BenchmarkLocalData|BenchmarkCollect|BenchmarkResidentHit' -benchmem -benchtime 20x ./internal/core/
	go test -run '^$' -bench 'BenchmarkUnmarshalAssignment' \
		-benchmem -benchtime 1000x ./internal/rpcproto/
	go test -run '^$' -bench 'BenchmarkCallRoundTrip|BenchmarkMarshalTaskStruct' \
		-benchmem -benchtime 1000x ./internal/xmlrpc/)"
	echo "$bench"
	echo "$bench" | awk '
		NR == FNR { if ($0 !~ /^#/ && NF == 2) limit[$1] = $2; next }
		/allocs\/op/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			for (i = 1; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1)
			if (name in limit) {
				checked[name] = 1
				if (allocs + 0 > limit[name] + 0) {
					printf "FAIL %s: %s allocs/op > limit %s\n", name, allocs, limit[name]
					bad = 1
				}
			}
		}
		END {
			for (n in limit) if (!(n in checked)) {
				printf "FAIL %s: benchmark missing from output\n", n
				bad = 1
			}
			exit bad
		}' scripts/alloc_thresholds.txt -
	echo "== tier 2: multi-tenant stress (race, two concurrent pipelined jobs + GC + fair share)"
	go test -race -count=2 \
		-run 'ConcurrentJobs|FairShare|JobGC|AdmissionQueue|PerJob' \
		./internal/cluster ./internal/sched
	echo "== tier 2: resident-dataset stress (race, cache + affinity + chaos slave death, hits read without their CRC)"
	go test -race -count=2 \
		-run 'Resident|Rewalk' \
		./internal/core ./internal/sched ./internal/slave ./internal/cluster ./internal/kvio
	echo "== tier 2: crash-recovery stress (race, repeated master crash/restart cycles)"
	go test -race -count=3 \
		-run 'MasterCrash|PlannedMaster|Recover|Resume|Journal' \
		./internal/cluster ./internal/master ./internal/journal ./internal/sched
	echo "== tier 2: elastic join + drain + speculation (race)"
	go test -race -count=2 \
		-run 'Elastic|Drain|Speculat|Resignin' \
		./internal/cluster ./internal/sched
	echo "== tier 2: piggybacked-report control plane (race: redelivery, unknown node, blacklist park, close acks, RPC counts, fleet start)"
	go test -race -count=2 \
		-run 'Piggyback|Malformed|BlacklistPark|CloseReturns|WaitFor|PSOChainCreatesNoBucketFiles|ChaosPackedMap|RunAgainstRealMaster' \
		./internal/master ./internal/cluster ./internal/slave
	echo "== tier 2: journal replay fuzz (corpus + 10s of new inputs)"
	go test -run '^$' -fuzz 'FuzzJournalReplay' -fuzztime 10s ./internal/journal
	echo "== tier 2: traced pipelined job end-to-end"
	trace="$(mktemp -t mrs-verify-XXXXXX.trace)"
	go run ./examples/pso -mrs=local -mrs-slaves 2 \
		-outer 5 -dims 20 -inner 10 -swarms 4 -tasks 4 \
		-mrs-trace "$trace" >/dev/null
	go run ./cmd/mrs-tracecheck -min-spans 1 -max-errors 0 "$trace"
	rm -f "$trace"
fi

echo "verify: OK (tier $tier)"
