// What every run binary (quickstart, fedcleanse_cli and the deployment's
// scheduler, server and client) shares around its own work: the run flags,
// observability bring-up, the journal, crash-resume checkpoints of an
// in-process simulation, the final --save and the trace flush.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "cli.h"
#include "common/error.h"
#include "common/logging.h"
#include "defense/pipeline.h"
#include "fl/run_state.h"
#include "fl/simulation.h"
#include "nn/checkpoint.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/quant.h"

namespace run {

namespace fc = fedcleanse;

struct Options {
  // Telemetry (DESIGN.md §17) is opt-in and never changes stdout or the
  // model bytes.
  std::string journal_path;
  std::string trace_path;
  // Crash-resume snapshots (DESIGN.md §13, §18).
  std::string checkpoint_dir;
  int checkpoint_every = 5;
  bool resume = false;
  std::string save_path;
  // Quantization knobs (DESIGN.md §16). A deployment must pass the same
  // values to every node.
  fc::tensor::ComputeKernel scan_kernel = fc::tensor::ComputeKernel::kF32;
  fc::comm::UpdateCodec update_codec = fc::comm::UpdateCodec::kF32;
};

// The run flags every run binary takes, --save aside (save_flag).
inline cli::Table flags(Options& o) {
  return {
      cli::text("--journal-out", "PATH", "write a JSONL run journal (one line per round)",
                o.journal_path),
      cli::text("--trace-out", "PATH", "write a Chrome trace_event file (Perfetto-loadable)",
                o.trace_path),
      cli::text("--checkpoint-dir", "DIR", "write rotated crash-resume snapshots into DIR",
                o.checkpoint_dir),
      cli::integer("--checkpoint-every", "N", "snapshot every N rounds", o.checkpoint_every),
      cli::toggle("--resume", "continue from the newest snapshot", [&o] { o.resume = true; }),
      cli::choice("--scan-quant", "f32|int8",
                  "GEMM kernel for the defense's activation scans (default f32)", "scan kernel",
                  [&o](const std::string& v) {
                    const auto kernel = fc::tensor::parse_compute_kernel(v);
                    if (kernel) o.scan_kernel = *kernel;
                    return kernel.has_value();
                  }),
      cli::choice("--update-codec", "f32|int8",
                  "wire codec for client updates; int8 shrinks uplink ~4x (default f32)",
                  "update codec",
                  [&o](const std::string& v) {
                    const auto codec = fc::comm::parse_update_codec(v);
                    if (codec) o.update_codec = *codec;
                    return codec.has_value();
                  }),
  };
}

inline cli::Flag save_flag(Options& o) {
  return cli::text("--save", "PATH", "write the final model to PATH", o.save_path);
}

// f(), or "invalid configuration: <why>" on stderr and exit 2 when the
// library rejects the configuration f builds from the flags.
template <typename F>
auto valid_or_exit(F&& f) {
  try {
    return f();
  } catch (const fc::Error& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    std::exit(2);
  }
}

// Owns one run's observability and checkpoint state from flag parsing to
// exit. Construct it right after cli::parse.
class Session {
 public:
  // Sets the run identity (the journal's {"kind":"open"} line) and the
  // trace's process name to `role`, turns metrics on for a journal or a
  // trace, and opens the journal (appending on --resume, so a resumed run
  // continues its journal). Exits 2 when --resume has no --checkpoint-dir
  // (`checkpointed` is false for the scheduler, which resumes from its own
  // registry) or the journal cannot be opened.
  Session(const std::string& role, int argc, char** argv, const Options& o,
          bool checkpointed = true)
      : opt_(o) {
    if (checkpointed && o.resume && o.checkpoint_dir.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
      std::exit(2);
    }
    namespace obs = fc::obs;
    obs::set_run_identity(role, obs::hash_argv(argc, argv), fc::tensor::int8_dispatch_name());
    obs::set_trace_process_name(role);
    if (!o.trace_path.empty()) {
      obs::set_trace_path(o.trace_path);
      obs::set_metrics_enabled(true);
    }
    if (!o.journal_path.empty()) {
      journal_ = std::make_unique<obs::Journal>(o.journal_path, o.resume);
      if (!journal_->ok()) {
        std::fprintf(stderr, "cannot open journal %s\n", o.journal_path.c_str());
        std::exit(2);
      }
      obs::set_ambient_journal(journal_.get());
      obs::set_metrics_enabled(true);
    }
  }

  // Telemetry artifacts are reported on stderr only: stdout stays identical
  // with or without them.
  ~Session() {
    if (journal_) {
      FC_LOG(Info) << "run journal: " << journal_->path() << " ("
                   << journal_->lines_written() << " lines)";
      fc::obs::set_ambient_journal(nullptr);
    }
    if (fc::obs::flush_trace()) {
      FC_LOG(Info) << "chrome trace: " << fc::obs::trace_path()
                   << " (open in chrome://tracing or ui.perfetto.dev)";
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Checkpoint a whole in-process simulation under --checkpoint-dir and, on
  // --resume, restore its newest snapshot. Call before sim.run().
  void attach(fc::fl::Simulation& sim) {
    if (opt_.checkpoint_dir.empty()) return;
    manager_ = std::make_unique<fc::fl::CheckpointManager>(opt_.checkpoint_dir,
                                                           opt_.checkpoint_every);
    if (opt_.resume) {
      resumed_ = manager_->load_latest();
      if (resumed_) {
        fc::fl::resume_simulation(sim, *resumed_);
        std::printf("  resumed from %s snapshot (next round %d)\n", resumed_->stage.c_str(),
                    resumed_->next_round);
      } else {
        std::printf("  no snapshot in %s; starting fresh\n", opt_.checkpoint_dir.c_str());
      }
    }
    sim.set_checkpoint_manager(manager_.get());
  }

  // run_defense under the attached checkpoints: defense stages snapshot too,
  // and a resumed run picks the defense up where its snapshot left it.
  fc::defense::DefenseReport defend(fc::fl::Simulation& sim,
                                    const fc::defense::DefenseConfig& dcfg) {
    return fc::defense::run_defense(sim, dcfg, manager_.get(),
                                    resumed_ ? &*resumed_ : nullptr);
  }

  // --save: write `model` and say so on stdout.
  void save(const fc::nn::ModelSpec& model, const char* what = "cleansed model") const {
    if (opt_.save_path.empty()) return;
    fc::nn::save_model_file(model, opt_.save_path);
    std::printf("saved %s to %s\n", what, opt_.save_path.c_str());
  }

 private:
  Options opt_;
  std::unique_ptr<fc::obs::Journal> journal_;
  std::unique_ptr<fc::fl::CheckpointManager> manager_;
  std::optional<fc::fl::RunSnapshot> resumed_;
};

// TA and AA after every defense stage.
inline void print_stage_table(const fc::defense::DefenseReport& report) {
  std::printf("  stage          TA      AA\n");
  std::printf("  training     %.3f   %.3f\n", report.training.test_acc,
              report.training.attack_acc);
  std::printf("  after FP     %.3f   %.3f   (%d neurons pruned)\n", report.after_fp.test_acc,
              report.after_fp.attack_acc, report.neurons_pruned);
  std::printf("  after FT     %.3f   %.3f   (%d rounds)\n", report.after_ft.test_acc,
              report.after_ft.attack_acc, report.finetune.rounds_run);
  std::printf("  after AW     %.3f   %.3f   (%d weights zeroed, delta=%.2f)\n",
              report.after_aw.test_acc, report.after_aw.attack_acc, report.weights_zeroed,
              report.adjust.final_delta);
}

}  // namespace run
