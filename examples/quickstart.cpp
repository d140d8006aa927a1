// Quickstart: train a backdoored federated model, then cleanse it.
//
// 10 clients (1 malicious) train a small CNN on the synthetic digit task
// with a 3-label non-IID distribution. The attacker poisons digit 9 with a
// 5-pixel trigger (target label 1) and uses model replacement. We then run
// the full defense pipeline — federated pruning (majority vote), federated
// fine-tuning, and adjusting extreme weights — and print the test accuracy
// (TA) and attack success rate (AA) after every stage.
//
// Usage: quickstart [seed] [options]; `quickstart --help` lists the flags.
//
// --clients scales the population (--clients 1000000 is a valid, memory-flat
// run: large populations switch to the virtual-client engine, which keeps
// only the sampled cohort resident — DESIGN.md §14). --select sets the
// per-round cohort size; when omitted for a scaled population, 10 clients
// are sampled per round.
//
// Telemetry is opt-in and never changes the run: with --journal-out a JSONL
// run journal (one line per round; validate/tabulate with
// scripts/journal_check.py) is written, with --trace-out (or FEDCLEANSE_TRACE)
// a Chrome trace_event file loadable in chrome://tracing or
// https://ui.perfetto.dev — stdout and the trained model bytes stay identical
// either way.
//
// With --checkpoint-dir the run writes rotated crash-resume snapshots every
// --checkpoint-every rounds (DESIGN.md §13); kill the process at any point
// and rerun with --resume added to continue from the newest snapshot — the
// final model is byte-identical to the uninterrupted run.
//
// The seed is a bare decimal number; an unknown flag, a flag missing its
// value, a malformed number or a config the simulation rejects (--clients 0)
// exits 2.
//
// --scan-quant int8 runs the defense's activation-profiling scans under the
// int8 GEMM kernel (training math stays fp32). --update-codec
// int8 quantizes client→server update payloads on the wire (~4x smaller
// uplink); the server dequantizes before aggregation. EXPERIMENTS.md records
// the measured TA/AA deltas for both knobs.
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "run_setup.h"

using namespace fedcleanse;

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  obs::init_from_env();
  std::uint64_t seed = 42;
  int clients = 10;
  int select = -1;  // per-round cohort; -1 = derive from the population
  run::Options opt;
  cli::Table rows = {
      cli::u64("seed", "", "RNG seed", seed),
      cli::integer("--clients", "N", "number of clients; above 10, 1% are malicious", clients),
      cli::integer("--select", "K", "clients sampled per round; -1 = 10 above 10 clients, else all",
                   select),
      run::save_flag(opt),
  };
  for (cli::Flag& f : run::flags(opt)) rows.push_back(std::move(f));
  cli::parse(argc, argv, rows);
  // A resumed run appends a second open line to its journal: the new pid
  // marks the restart boundary alongside the snapshot's {"kind":"resume"}.
  run::Session session("quickstart", argc, argv, opt);

  fl::SimulationConfig cfg;
  cfg.arch = nn::Architecture::kMnistCnn;
  cfg.dataset = data::SynthKind::kDigits;
  cfg.n_clients = clients;
  cfg.n_attackers = 1;
  cfg.rounds = 25;
  cfg.labels_per_client = 3;
  cfg.attack.pattern = data::make_pixel_pattern(5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = seed;
  cfg.train.scan_kernel = opt.scan_kernel;
  cfg.train.update_codec = opt.update_codec;
  if (cfg.n_clients > 10) {
    // Scaled population: 1% malicious, fixed-size local datasets (the even
    // split would starve a million clients), sampled cohorts.
    cfg.n_attackers = std::max(1, cfg.n_clients / 100);
    cfg.samples_per_client = 32;
    cfg.clients_per_round = 10;
  }
  if (select >= 0) cfg.clients_per_round = select;

  std::printf("Training %d-client federated model (%d attacker%s, trigger: %s)...\n",
              cfg.n_clients, cfg.n_attackers, cfg.n_attackers == 1 ? "" : "s",
              cfg.attack.pattern.name.c_str());
  auto sim = run::valid_or_exit([&] { return std::make_unique<fl::Simulation>(cfg); });
  if (sim->virtual_clients()) {
    std::printf("  virtual clients: %d of %d sampled per round, slab-resident cohort only\n",
                cfg.clients_per_round, cfg.n_clients);
  }
  session.attach(*sim);
  sim->run();
  std::printf("  after training: TA=%.3f  AA=%.3f\n", sim->test_accuracy(),
              sim->attack_success());

  defense::DefenseConfig dcfg;
  dcfg.method = defense::PruneMethod::kMVP;
  dcfg.vote_prune_rate = 0.5;

  std::printf("Running defense pipeline (FP -> FT -> AW)...\n");
  run::print_stage_table(session.defend(*sim, dcfg));
  std::printf("Network traffic: %.2f MiB\n",
              static_cast<double>(sim->network().total_bytes()) / (1024.0 * 1024.0));
  session.save(sim->server().model());
  return 0;
}
