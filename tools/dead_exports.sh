#!/usr/bin/env bash
# No dead exports: every `val` of a library interface must be named in
# some other .ml/.mli than its own module's pair. Prints one line per
# dead export and exits 1 if there is any, 0 otherwise.
#
# Run from anywhere: tools/dead_exports.sh
set -eo pipefail
cd "$(dirname "$0")/.."
dead=0
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    users=$(grep -rlwF --include='*.ml' --include='*.mli' -- "$v" \
        lib test bench perfbench examples bin \
        | grep -vx -e "$mli" -e "$ml" || true)
    if [ -z "$users" ]; then
      echo "dead export: $mli: val $v"
      dead=1
    fi
  done
done
exit $dead
