#!/bin/sh
# Flag/doc coverage gate (tier 1 of scripts/verify.sh).
#
# Extracts every flag registered by mrs.BindFlags (flags.go) and fails
# unless each one is documented:
#   - in docs/OBSERVABILITY.md, the canonical flag reference ("the full
#     standard flag set"), and
#   - somewhere in the user-facing doc set (README.md + docs/*.md),
#     which OBSERVABILITY.md membership already implies but is checked
#     independently so the rule survives a reference-table move.
# Fails, too, if README.md, DESIGN.md or docs/*.md mention a -mrs-*
# flag that flags.go does not register, so a deleted flag cannot leave
# stale rows behind (CHANGES.md and ROADMAP.md are history and exempt).
# Likewise fails if those docs name an mrs_* metric that no Go string
# literal in the root package, internal/ or cmd/ defines, so a deleted
# metric cannot leave stale rows behind either. Also fails if any
# docs/*.md file referenced from the top-level docs does not exist, so
# renames can't leave dangling links.
set -eu
cd "$(dirname "$0")/.."

fail=0

flags="$(grep -oE '"mrs(-[a-z0-9-]+)?"' flags.go | tr -d '"' | sort -u)"
if [ -z "$flags" ]; then
	echo "check_docs: FAIL: no flag registrations found in flags.go" >&2
	exit 1
fi

for f in $flags; do
	if ! grep -q -- "-$f" docs/OBSERVABILITY.md; then
		echo "check_docs: FAIL: flag -$f missing from docs/OBSERVABILITY.md flag table" >&2
		fail=1
	fi
	if ! grep -q -- "-$f" README.md docs/*.md; then
		echo "check_docs: FAIL: flag -$f not documented anywhere in README.md or docs/" >&2
		fail=1
	fi
done

# Every -mrs-* flag the docs mention must be registered.
for f in $(grep -ohE -- '-mrs-[a-z0-9-]+' README.md DESIGN.md docs/*.md | sed 's/^-//' | sort -u); do
	if ! echo "$flags" | grep -qx -- "$f"; then
		echo "check_docs: FAIL: docs mention -$f, which flags.go does not register" >&2
		fail=1
	fi
done

# Every mrs_* metric the docs name must come from a Go string literal
# (test files excluded). A doc name matches a literal exactly or is a
# prefix of one (a family, e.g. `mrs_shuffle_bytes_*` or `grep mrs_sched`).
lits="$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go'; find internal cmd -name '*.go' ! -name '*_test.go')"
missing="$(
	{
		grep -ohE '"mrs_[A-Za-z0-9_]*' $lits | tr -d '"' | sort -u
		echo '--'
		grep -ohE 'mrs_[A-Za-z0-9_]+' README.md DESIGN.md docs/*.md | sort -u
	} | awk '
		$0 == "--" { docs = 1; next }
		!docs { lit[++n] = $0; next }
		{
			for (i = 1; i <= n; i++) {
				l = lit[i]
				if ($0 == l || index(l, $0) == 1) next
			}
			print
		}'
)"
for m in $missing; do
	echo "check_docs: FAIL: docs name metric $m, which no Go string literal defines" >&2
	fail=1
done

# Doc files referenced from the top-level docs must exist.
refs="$(grep -ohE 'docs/[A-Za-z0-9_-]+\.md' README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md | sort -u)"
for r in $refs; do
	if [ ! -f "$r" ]; then
		echo "check_docs: FAIL: $r is referenced but does not exist" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
n="$(echo "$flags" | wc -l | tr -d ' ')"
echo "check_docs: OK ($n flags documented, documented metrics defined, doc cross-references resolve)"
