#!/usr/bin/env bash
# No polymorphic tables on the packet path. Per-flow state under
# lib/core, lib/transport and lib/flowsim is keyed by int and lives in
# a Pdq_engine.Int_table, which hashes and compares its keys as ints;
# a Hashtbl there would call the runtime's polymorphic hash and
# compare on every lookup, once per packet hop.
#
# Prints each line that names `Hashtbl.` and exits 1 if there is any,
# 0 otherwise. Run from anywhere: tools/packet_path_tables.sh
set -eo pipefail
cd "$(dirname "$0")/.."
if grep -rn 'Hashtbl\.' lib/core lib/transport lib/flowsim; then
  exit 1
fi
