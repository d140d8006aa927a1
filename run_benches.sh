#!/bin/sh
# Regenerate every table and figure. FEDCLEANSE_SCALE trades fidelity for
# time. Tables run first (the headline results), then figures/ablations.
#
# micro_ops additionally writes BENCH_micro_ops.json into the repo root (the
# committed baseline — scripts/bench_compare.py diffs fresh runs against it).
# FEDCLEANSE_THREADS sets the pool size micro_ops times against (default:
# hardware concurrency).
cd "$(dirname "$0")" || exit 1
for b in build/bench/table1_mnist build/bench/table2_fashion \
         build/bench/table3_cifar_dba build/bench/table4_neural_cleanse \
         build/bench/table5_pruning_methods build/bench/table6_adjust_weights \
         build/bench/table7_patterns build/bench/fig3_distribution \
         build/bench/fig5_pruning_curves build/bench/fig6_delta_sweep \
         build/bench/fig7_random_selection build/bench/fig8_num_attackers \
         build/bench/fig9_energy build/bench/fig10_regularization \
         build/bench/ablation_adaptive_attacks build/bench/ablation_aggregators \
         build/bench/micro_ops; do
  echo "===== $(basename "$b") ====="
  "$b"
  echo
done
