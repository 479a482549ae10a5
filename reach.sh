#!/bin/sh
# Reach audit: every function under internal/ is run by a study, a root
# integration test or a command's test, or reach.allow says why not.
#
# It runs the studies (internal/experiments), the root integration tests
# and every cmd/ test once, with coverage of ./internal/... (about 30 s on
# two cores; cmd/bench is a module of its own and is not among them), and
# lists the functions left at 0 %. Each is keyed "path Recv.Func" or
# "path Func", with no line number, so an edit elsewhere in the file does
# not move the key. It fails when a 0 % function is not in reach.allow,
# or when a line of reach.allow names no function at all.
#
# To keep a function nothing runs, add a line to reach.allow under the
# "## " heading that says why: the key, then the reason, as in
#   internal/vtime/vtime.go NewManual tests step a clock by hand
# The five headings are named in the awk program below: a route or
# operator endpoint, a fault or degradation path (name the test that
# drives it), a test clock or cross-package test seam, code frozen by
# cmd/bench, or a pending ROADMAP item. Anything else is deleted instead.
set -eu

cd "$(dirname "$0")"
# The studies and fixtures simulate in testing/synctest bubbles, which
# go1.24 compiles only under this experiment: set, coverage sees the
# tagged files and no test binary runs its package again under it.
export GOEXPERIMENT=synctest

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/cover.out" \
	./internal/experiments . ./cmd/... >"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log" >&2
	echo "reach: the covered tests failed" >&2
	exit 1
fi
mod=$(go list -m)
go tool cover -func="$tmp/cover.out" >"$tmp/func.txt"
grep -rn --include='*.go' --exclude='*_test.go' '^func' internal >"$tmp/decls.txt"

# func.txt lines are "<mod>/<file>:<line>:<tab>Name<tab>NN.N%"; decls.txt
# lines are "<file>:<line>:func ...". Join them on file:line to put the
# receiver's type in the key.
awk -v mod="$mod/" '
FNR == NR {
	split($0, f, ":")
	decl = substr($0, length(f[1]) + length(f[2]) + 3)
	sub(/^func /, "", decl)
	recv = ""
	if (decl ~ /^\(/) {
		recv = substr(decl, 2, index(decl, ")") - 2)
		decl = substr(decl, index(decl, ")") + 1)
		sub(/^ +/, "", decl)
		n = split(recv, w, " ")
		recv = w[n]
		sub(/^\*/, "", recv)
		sub(/\[.*/, "", recv)
		recv = recv "."
	}
	name = decl
	sub(/[\[(].*/, "", name)
	key[f[1] ":" f[2]] = f[1] " " recv name
	next
}
$1 == "total:" { next }
{
	split($1, f, ":")
	file = f[1]
	sub("^" mod, "", file)
	k = key[file ":" f[2]]
	if (k == "") {
		print "reach: no declaration at " file ":" f[2] > "/dev/stderr"
		exit 1
	}
	print k, ($NF == "0.0%" ? "zero" : "reached")
}' "$tmp/decls.txt" "$tmp/func.txt" >"$tmp/keys.txt"

# A key is at 0 % only when every function it names is.
awk '{ print $1, $2 }' "$tmp/keys.txt" | sort -u >"$tmp/all.txt"
grep ' reached$' "$tmp/keys.txt" | awk '{ print $1, $2 }' | sort -u >"$tmp/reached.txt"
grep ' zero$' "$tmp/keys.txt" | awk '{ print $1, $2 }' | sort -u |
	comm -23 - "$tmp/reached.txt" >"$tmp/zero.txt"

# reach.allow: "## <heading>" lines, one of the five, and under them
# "<path> <Func> <reason>" lines; other lines starting with # are comments.
awk '
/^[ \t]*$/ { next }
/^## / {
	h = substr($0, 4)
	heading = (h == "route or operator endpoint" ||
		h == "fault or degradation path" ||
		h == "test clock or cross-package test seam" ||
		h == "frozen by cmd/bench" ||
		h == "pending ROADMAP item")
	if (!heading) { print "reach.allow:" NR ": unknown heading: " h > "/dev/stderr"; bad = 1 }
	next
}
/^#/ { next }
{
	if (!heading) { print "reach.allow:" NR ": entry under no heading" > "/dev/stderr"; bad = 1 }
	if (NF < 3) { print "reach.allow:" NR ": no reason given" > "/dev/stderr"; bad = 1 }
	print $1, $2
}
END { exit bad }' reach.allow | sort >"$tmp/allow.txt"

status=0
if dup=$(uniq -d "$tmp/allow.txt") && [ -n "$dup" ]; then
	echo "reach.allow lists twice:" >&2
	echo "$dup" >&2
	status=1
fi
sort -u -o "$tmp/allow.txt" "$tmp/allow.txt"
unlisted=$(comm -23 "$tmp/zero.txt" "$tmp/allow.txt")
stale=$(comm -23 "$tmp/allow.txt" "$tmp/all.txt")
reached=$(comm -12 "$tmp/allow.txt" "$tmp/reached.txt")
if [ -n "$unlisted" ]; then
	echo "reach: at 0 % and not in reach.allow (delete it, or list it with a reason):" >&2
	echo "$unlisted" | sed 's/^/  /' >&2
	status=1
fi
if [ -n "$stale" ]; then
	echo "reach.allow names no function:" >&2
	echo "$stale" | sed 's/^/  /' >&2
	status=1
fi
if [ -n "$reached" ]; then
	echo "reach: listed, but reached this run (the line may go):"
	echo "$reached" | sed 's/^/  /'
fi
count() { if [ -s "$1" ]; then wc -l <"$1" | tr -d ' '; else echo 0; fi; }
echo "reach: $(count "$tmp/all.txt") functions, $(count "$tmp/zero.txt") at 0 %, $(count "$tmp/allow.txt") listed, $(printf '%s' "$unlisted" | grep -c . || true) unlisted"
exit $status
