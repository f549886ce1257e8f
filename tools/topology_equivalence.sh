#!/usr/bin/env bash
# Prove the topology layer's contracts (docs/topology.md):
#
# 1. The crossbar backend is observationally inert: sweep_dump with
#    --topology=crossbar must be byte-identical to the legacy default
#    across both protocols, two real apps and a stress-gen seed. The
#    backend routes every packet through the topology dispatch but
#    computes the legacy latency formula verbatim, so any divergence means
#    the dispatch itself perturbed the model.
#
# 2. Contended topologies report their links: fat-tree and torus dumps at
#    64 processors (16 nodes) must carry the per-link occupancy lines
#    (grants/busy/wait/bytes per physical link).
#
#   tools/topology_equivalence.sh <build_dir>
#
#   build_dir   an already-built default tree
set -euo pipefail

build_dir="${1:?usage: topology_equivalence.sh <build_dir>}"

out_dir="$build_dir/topology-equivalence"
mkdir -p "$out_dir"

apps="fft,lu,stress-gen@3"

# Arm 1: crossbar == legacy, byte for byte.
"$build_dir/bench/sweep_dump" --apps="$apps" > "$out_dir/dump-legacy.txt"
"$build_dir/bench/sweep_dump" --apps="$apps" --topology=crossbar \
  > "$out_dir/dump-crossbar.txt"
if ! diff -u "$out_dir/dump-legacy.txt" "$out_dir/dump-crossbar.txt"; then
  echo "topology_equivalence: legacy vs --topology=crossbar DIVERGES" >&2
  exit 1
fi

# Arm 2: contended topologies at 64 procs carry one line per physical link.
for topo in fattree:4 torus:4x4; do
  tag="${topo//:/-}"
  "$build_dir/bench/sweep_dump" --apps=stress-gen@3 --procs=64 \
    --topology="$topo" > "$out_dir/dump-$tag.txt"
  if ! grep -q '^  link' "$out_dir/dump-$tag.txt"; then
    echo "topology_equivalence: $topo dump carries no per-link lines" >&2
    exit 1
  fi
done

echo "topology_equivalence: crossbar == legacy;" \
  "fattree:4 and torus:4x4 carry per-link lines" \
  "($(wc -l < "$out_dir/dump-legacy.txt") legacy lines identical)"
