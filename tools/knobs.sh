#!/bin/sh
# Knob count: the number of optional parameters (`?x:`) declared in the
# library interfaces, LIB_DIR/*/*.mli. `dune runtest` diffs it against
# test/knobs.expected, so adding or removing an option is a reviewed
# `dune promote`, as a changed golden is.
#
# Usage: knobs.sh [LIB_DIR]   (default: lib)
set -u

LIB=${1:-lib}
cat "$LIB"/*/*.mli | grep -o "?[a-z_][A-Za-z0-9_']*:" | wc -l | tr -d ' '
