#!/bin/sh
# mutate.sh applies each entry of asm_mutations.txt (see its header) to a
# temporary copy of the module, one entry at a time, builds the media
# tests and runs the entry's test (or subtest, Test/sub) alone. It fails
# when an entry's text does not occur exactly once, when a mutant does not
# build, when a mutant passes its test, or when a control fails its test.
# An entry whose test the host skips (the AVX2 body's subtest on a host
# without AVX2) is reported as skipped. Usage, from the repository root:
# sh internal/media/testdata/mutate.sh (make mutate).
set -eu
here=$(cd "$(dirname "$0")" && pwd)
media=$(dirname "$here")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM
mkdir -p "$work/internal"
cp "$media/../../go.mod" "$work/"
cp -R "$media" "$work/internal/media"
pkg=$work/internal/media

# apply replaces the one occurrence of $OLD in the input by $NEW, after
# turning \n and \t in both into newline and tab; it exits 1 unless $OLD
# occurs exactly once.
apply='
function unesc(s) { gsub(/\\n/, "\n", s); gsub(/\\t/, "\t", s); return s }
BEGIN { old = unesc(ENVIRON["OLD"]); new = unesc(ENVIRON["NEW"]) }
{ text = text $0 "\n" }
END {
	n = 0; rest = text
	while (old != "" && (i = index(rest, old)) > 0) { n++; rest = substr(rest, i + length(old)) }
	if (n != 1) { printf "old text occurs %d times\n", n > "/dev/stderr"; exit 1 }
	i = index(text, old)
	printf "%s%s%s", substr(text, 1, i - 1), new, substr(text, i + length(old))
}'

field() { printf '%s\n' "$1" | awk -F ' *[|] *' -v n="$2" '{ print $n }'; }

status=0 killed=0 skipped=0 entries=0
while IFS= read -r line; do
	case $line in '#'* | '') continue ;; esac
	entries=$((entries + 1))
	file=$(field "$line" 1) test=$(field "$line" 4) expect=$(field "$line" 5)
	label="$entries $file ($test)"
	run=$(printf '%s\n' "$test" | sed 's|[^/][^/]*|^&$|g')
	if ! OLD=$(field "$line" 2) NEW=$(field "$line" 3) awk "$apply" "$media/$file" >"$pkg/$file"; then
		echo "FAIL $label: no unique old text"
		status=1
	elif ! (cd "$pkg" && go test -c -o "$work/media.test" . >"$work/log" 2>&1); then
		echo "FAIL $label: mutant does not build"
		cat "$work/log"
		status=1
	elif (cd "$pkg" && "$work/media.test" -test.run "$run" -test.v >"$work/log" 2>&1); then
		if grep -q -- "--- SKIP: $test " "$work/log"; then
			echo "skip $label: the host skips the test"
			skipped=$((skipped + 1))
		elif [ "$expect" != survives ]; then
			echo "FAIL $label: mutant survived"
			status=1
		elif ! grep -q -- "--- PASS: $test " "$work/log"; then
			echo "FAIL $label: control test did not run"
			status=1
		else
			echo "ok   $label: control survived"
		fi
	elif [ "$expect" = survives ]; then
		echo "FAIL $label: control failed"
		cat "$work/log"
		status=1
	else
		echo "ok   $label: killed: $(grep -m1 '_test.go:' "$work/log" | cut -c1-100)"
		killed=$((killed + 1))
	fi
	cp "$media/$file" "$pkg/$file"
done <"$here/asm_mutations.txt"
echo "$killed of $entries entries killed, $skipped skipped"
exit $status
