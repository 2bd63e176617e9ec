#!/bin/sh
# Doc goldens: every experiment table that `dune runtest` pins must be
# quoted verbatim in EXPERIMENTS.md, so the claims document cannot
# drift from what the code prints. A quote is a fenced block right
# after a marker line:
#
#   <!-- golden: exp7 -->
#   ```text
#   ...the exact contents of GOLDEN_DIR/exp7.expected...
#   ```
#
# Every GOLDEN_DIR/expN.expected must be quoted exactly once, and every
# marker must name one of them.
#
# Usage: doc_goldens.sh DOC GOLDEN_DIR [WORKDIR]
# Prints a diff per stale quote and exits non-zero on any mismatch.
set -u

DOC=$1
GOLDEN=$2
WORK=${3:-doc-goldens-work}
rm -rf "$WORK"
mkdir -p "$WORK"

# Split each marked block into WORK/NAME.quote; a marker without a
# fence after it, an unterminated fence or a repeated name is an error.
awk -v work="$WORK" '
  function die(msg) { print FILENAME ":" NR ": " msg > "/dev/stderr"; bad = 1; exit 1 }
  /^<!-- golden: [A-Za-z0-9_-]+ -->$/ {
    name = $3
    if (name in seen) die("golden " name " quoted twice")
    seen[name] = 1
    if ((getline line) <= 0 || line !~ /^```/) die("no fenced block after the " name " marker")
    out = work "/" name ".quote"
    printf "" > out
    closed = 0
    while ((getline line) > 0) {
      if (line == "```") { closed = 1; break }
      print line > out
    }
    close(out)
    if (!closed) die("unterminated fenced block for " name)
    next
  }
  /^<!-- golden:/ { die("malformed golden marker: " $0) }
  END { if (bad) exit 1 }
' "$DOC" || exit 1

fail=0
for f in "$GOLDEN"/exp*.expected; do
  name=$(basename "$f" .expected)
  case $name in exp[0-9]|exp[0-9][0-9]) ;; *) continue ;; esac
  if [ ! -f "$WORK/$name.quote" ]; then
    echo "$DOC: no <!-- golden: $name --> block quotes $f"
    fail=1
  elif ! diff -u "$f" "$WORK/$name.quote"; then
    echo "$DOC: the $name block differs from $f"
    fail=1
  fi
done
for q in "$WORK"/*.quote; do
  [ -e "$q" ] || continue
  name=$(basename "$q" .quote)
  [ -f "$GOLDEN/$name.expected" ] || {
    echo "$DOC: the $name block names no golden in $GOLDEN"
    fail=1
  }
done
exit $fail
