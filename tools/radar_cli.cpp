// radar_cli — command-line front end for the RADAR deployment workflow.
//
// Commands are registered in a dispatch table (kCommands below): each
// entry owns its usage line, its positional-argument arity and its
// handler. `radar_cli help` prints the table; exit codes are uniform
// across commands (0 success, 1 runtime failure, 2 usage error).
//
//   radar_cli sign   <pkg> [--model tiny|resnet20|resnet18] [--group N]
//                          [--scheme NAME] [--bits 2|3] [--no-interleave]
//       Train (or load from cache) the reference model, attach the chosen
//       protection scheme and write a signed deployment package. --scheme
//       accepts any registered id (see `radar_cli schemes`); --bits 2|3 is
//       shorthand for --scheme radar2|radar3.
//
//   radar_cli info   <pkg>
//       Print package metadata, including the stored scheme id (no
//       verification).
//
//   radar_cli pack inspect <pkg> [--predict N [--model ...]]
//       Print the package format version, scheme id + parameters, the
//       engine-section summary (v4: op count, calibration images) and the
//       per-layer weight-arena table (byte offset / size / scale) — the
//       storage-level view of the artifact (no model, no verification).
//       --predict N also loads the package into the --model structure
//       and prints the signed engine's class for the first N test images,
//       one "prediction <i> <class>" line each: the replies a fresh
//       `serve` daemon gives to its first N `INFER <tenant>` requests.
//
//   radar_cli verify <pkg> [--model ...] [--threads N] [--mmap]
//       Load the package into a fresh model and verify CRC + golden codes
//       (scanning across N worker threads); exit code 0 only when the
//       artifact is intact. --mmap serves the reload-clean golden copy
//       from a read-only mapping of the package file (v3+ packages).
//
//   radar_cli attack <pkg> [--model ...] [--flips N] [--pbfa]
//       Corrupt the package the way a rowhammer adversary would corrupt
//       DRAM (random MSB flips, or gradient-guided PBFA with --pbfa) and
//       re-save it — the golden codes are preserved, so `verify` exposes
//       the tampering.
//
//   radar_cli recover <pkg> [--model ...] [--threads N]
//       Load, zero out every flagged group, re-sign and save: the
//       offline analogue of the run-time recovery path.
//
//   radar_cli campaign <spec.json> [--threads N] [--scan-threads N]
//                          [--incremental | --scheduled] [--eval-batch N]
//                          [--scan-budget-us N] [--scan-budget-bytes N]
//                          [--eval-engine reference|batched]
//                          [--out report.json] [--csv report.csv]
//                          [--timing]
//       Run a declarative attack campaign (attackers x schemes x fault
//       rates x trials, see src/campaign/campaign_spec.h for the spec
//       format) fanned out over N worker threads, print the summary and
//       optionally write the JSON/CSV report. Reports are byte-identical
//       across thread counts at a fixed seed; --timing adds wall-clock
//       data (incl. engine images/sec) to the JSON, breaking that
//       invariance on purpose. --incremental switches the evaluation
//       phase to dirty-group scanning with write-by-write undo;
//       --eval-batch sets the images per int8-engine forward (default
//       auto) and --eval-engine selects the batched im2col+GEMM kernels
//       or the direct-convolution reference — all three keep reports
//       byte-identical (CI-enforced). --scheduled runs every trial's
//       scan through the budget-driven ScanScheduler (interleaving one
//       inference batch per slice) and records time-to-detect under the
//       --scan-budget-us / --scan-budget-bytes slice budget; default
//       reports stay byte-identical to the full-scan mode, with the QoS
//       telemetry in the --timing JSON section.
//
//   radar_cli serve --socket <path> --tenant <name>=<pkg> [...]
//                   [--model ...] [--workers N] [--queue N] [--no-scan]
//                   [--scan-shard-bytes N] [--scan-budget-us N]
//                   [--scan-budget-bytes N] [--coverage-period-ms N]
//                   [--no-mmap]
//                   [--quarantine-threshold N] [--quarantine-window-ms N]
//                   [--quarantine-backoff-ms N] [--conn-timeout-ms N]
//                   [--deadline-ms N] [--no-watchdog]
//                   [--watchdog-interval-ms N] [--scanner-stall-ms N]
//                   [--worker-stall-ms N]
//       Multi-tenant protection-as-a-service daemon: every --tenant loads
//       one signed package (mmap'd golden copy by default) behind a
//       shared worker pool, with the epoch-guarded background scanner
//       sweeping all tenants. The package alone defines the served
//       model; --model names only the recipe whose test images are the
//       `INFER` inputs (its classes must match the signed engine's).
//       Speaks the line protocol on the Unix socket (see
//       src/serve/daemon.h); `SHUTDOWN` exits cleanly and prints the
//       final stats JSON.
//
//   radar_cli schemes
//       List the registered scheme ids.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "attack/pbfa.h"
#include "attack/random_attack.h"
#include "campaign/campaign.h"
#include "core/package.h"
#include "core/scheme_registry.h"
#include "exp/workspace.h"
#include "serve/daemon.h"

namespace {

using namespace radar;

struct Args {
  std::string command;
  std::vector<std::string> positional;  ///< args after the command name
  std::string package;     ///< first positional (second for `pack`)
  std::string subcommand;  ///< "pack <subcommand> <file>" form
  std::string model = "tiny";
  std::string scheme;  ///< empty: derived from --bits
  std::int64_t group = 32;
  int bits = 2;
  bool interleave = true;
  int flips = 10;
  bool use_pbfa = false;
  std::size_t threads = 1;
  std::size_t scan_threads = 1;
  bool mmap_golden = false;  ///< verify: mmap the v3+ arena as golden copy
  std::int64_t predict = 0;  ///< pack inspect: engine predictions to print
  std::string out;  ///< campaign JSON report path
  std::string csv;  ///< campaign CSV report path
  bool timing = false;
  bool incremental = false;  ///< campaign: dirty-group scanning
  bool scheduled = false;    ///< campaign: budget-driven interleaved scan
  campaign::EvalOptions eval;  ///< campaign: accuracy-eval knobs
  // ---- scan QoS knobs, shared by campaign --scheduled and serve ----
  // INT64_MIN = not given on the command line (keep the mode default).
  std::int64_t scan_budget_us = INT64_MIN;
  std::int64_t scan_budget_bytes = INT64_MIN;
  std::int64_t coverage_period_ms = INT64_MIN;
  // ---- serve ----
  std::string socket;                 ///< serve: unix socket path
  std::vector<std::string> tenants;   ///< serve: name=package specs
  std::size_t workers = 2;
  std::size_t queue_capacity = 4096;
  bool scan = true;
  std::int64_t scan_shard_bytes = 16 * 1024;
  bool serve_mmap = true;
  // Quarantine policy (see ServeOptions); -1 keeps the built-in default.
  int quarantine_threshold = -1;
  std::int64_t quarantine_window_ms = -1;
  std::int64_t quarantine_backoff_ms = -1;
  // Robustness knobs (see ServeOptions / Daemon); -1 keeps defaults.
  std::int64_t conn_timeout_ms = -1;
  std::int64_t watchdog_interval_ms = -1;
  std::int64_t scanner_stall_ms = -1;
  std::int64_t worker_stall_ms = -1;
  std::int64_t default_deadline_ms = -1;
  bool watchdog = true;
};

bool parse_options(int argc, char** argv, int first_opt, Args& args) {
  for (int i = first_opt; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--model") {
      args.model = next("--model");
    } else if (a == "--scheme") {
      args.scheme = next("--scheme");
    } else if (a == "--group") {
      args.group = std::atoll(next("--group"));
    } else if (a == "--bits") {
      args.bits = std::atoi(next("--bits"));
    } else if (a == "--no-interleave") {
      args.interleave = false;
    } else if (a == "--flips") {
      args.flips = std::atoi(next("--flips"));
    } else if (a == "--pbfa") {
      args.use_pbfa = true;
    } else if (a == "--threads") {
      const int threads = std::atoi(next("--threads"));
      if (threads < 0) {
        std::fprintf(stderr, "--threads must be >= 0 (0 = all cores)\n");
        return false;
      }
      args.threads = static_cast<std::size_t>(threads);
    } else if (a == "--scan-threads") {
      const int threads = std::atoi(next("--scan-threads"));
      if (threads < 0) {
        std::fprintf(stderr, "--scan-threads must be >= 0\n");
        return false;
      }
      args.scan_threads = static_cast<std::size_t>(threads);
    } else if (a == "--out") {
      args.out = next("--out");
    } else if (a == "--csv") {
      args.csv = next("--csv");
    } else if (a == "--timing") {
      args.timing = true;
    } else if (a == "--mmap") {
      args.mmap_golden = true;
    } else if (a == "--predict") {
      args.predict = std::atoll(next("--predict"));
      if (args.predict < 0) {
        std::fprintf(stderr, "--predict must be >= 0\n");
        return false;
      }
    } else if (a == "--incremental") {
      args.incremental = true;
    } else if (a == "--scheduled") {
      args.scheduled = true;
    } else if (a == "--scan-budget-us") {
      args.scan_budget_us = std::atoll(next("--scan-budget-us"));
    } else if (a == "--scan-budget-bytes") {
      args.scan_budget_bytes = std::atoll(next("--scan-budget-bytes"));
    } else if (a == "--coverage-period-ms") {
      args.coverage_period_ms = std::atoll(next("--coverage-period-ms"));
      if (args.coverage_period_ms < 0) {
        std::fprintf(stderr,
                     "--coverage-period-ms must be >= 0 (0 = alarm off)\n");
        return false;
      }
    } else if (a == "--eval-batch") {
      const int batch = std::atoi(next("--eval-batch"));
      if (batch < 0) {
        std::fprintf(stderr, "--eval-batch must be >= 0 (0 = auto)\n");
        return false;
      }
      args.eval.batch = batch;
    } else if (a == "--eval-engine") {
      const std::string kind = next("--eval-engine");
      if (kind == "reference") {
        args.eval.engine = qnn::EngineKind::kReference;
      } else if (kind == "batched") {
        args.eval.engine = qnn::EngineKind::kBatched;
      } else {
        std::fprintf(stderr,
                     "--eval-engine must be reference or batched\n");
        return false;
      }
    } else if (a == "--socket") {
      args.socket = next("--socket");
    } else if (a == "--tenant") {
      args.tenants.push_back(next("--tenant"));
    } else if (a == "--workers") {
      const int w = std::atoi(next("--workers"));
      if (w < 1) {
        std::fprintf(stderr, "--workers must be >= 1\n");
        return false;
      }
      args.workers = static_cast<std::size_t>(w);
    } else if (a == "--queue") {
      const int q = std::atoi(next("--queue"));
      if (q < 1) {
        std::fprintf(stderr, "--queue must be >= 1\n");
        return false;
      }
      args.queue_capacity = static_cast<std::size_t>(q);
    } else if (a == "--no-scan") {
      args.scan = false;
    } else if (a == "--scan-shard-bytes") {
      args.scan_shard_bytes = std::atoll(next("--scan-shard-bytes"));
      if (args.scan_shard_bytes < 1) {
        std::fprintf(stderr, "--scan-shard-bytes must be >= 1\n");
        return false;
      }
    } else if (a == "--no-mmap") {
      args.serve_mmap = false;
    } else if (a == "--quarantine-threshold") {
      args.quarantine_threshold = std::atoi(next("--quarantine-threshold"));
      if (args.quarantine_threshold < 0) {
        std::fprintf(stderr, "--quarantine-threshold must be >= 0\n");
        return false;
      }
    } else if (a == "--quarantine-window-ms") {
      args.quarantine_window_ms =
          std::atoll(next("--quarantine-window-ms"));
      if (args.quarantine_window_ms < 1) {
        std::fprintf(stderr, "--quarantine-window-ms must be >= 1\n");
        return false;
      }
    } else if (a == "--quarantine-backoff-ms") {
      args.quarantine_backoff_ms =
          std::atoll(next("--quarantine-backoff-ms"));
      if (args.quarantine_backoff_ms < 1) {
        std::fprintf(stderr, "--quarantine-backoff-ms must be >= 1\n");
        return false;
      }
    } else if (a == "--conn-timeout-ms") {
      args.conn_timeout_ms = std::atoll(next("--conn-timeout-ms"));
      if (args.conn_timeout_ms < 0) {
        std::fprintf(stderr, "--conn-timeout-ms must be >= 0 (0 = off)\n");
        return false;
      }
    } else if (a == "--watchdog-interval-ms") {
      args.watchdog_interval_ms =
          std::atoll(next("--watchdog-interval-ms"));
      if (args.watchdog_interval_ms < 1) {
        std::fprintf(stderr, "--watchdog-interval-ms must be >= 1\n");
        return false;
      }
    } else if (a == "--scanner-stall-ms") {
      args.scanner_stall_ms = std::atoll(next("--scanner-stall-ms"));
      if (args.scanner_stall_ms < 1) {
        std::fprintf(stderr, "--scanner-stall-ms must be >= 1\n");
        return false;
      }
    } else if (a == "--worker-stall-ms") {
      args.worker_stall_ms = std::atoll(next("--worker-stall-ms"));
      if (args.worker_stall_ms < 1) {
        std::fprintf(stderr, "--worker-stall-ms must be >= 1\n");
        return false;
      }
    } else if (a == "--deadline-ms") {
      args.default_deadline_ms = std::atoll(next("--deadline-ms"));
      if (args.default_deadline_ms < 0) {
        std::fprintf(stderr, "--deadline-ms must be >= 0 (0 = off)\n");
        return false;
      }
    } else if (a == "--no-watchdog") {
      args.watchdog = false;
    } else if (a == "--") {
      // explicit end of options
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", a.c_str());
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.bits != 2 && args.bits != 3) {
    std::fprintf(stderr, "--bits must be 2 or 3\n");
    return false;
  }
  return true;
}

std::string scheme_id(const Args& args) {
  if (!args.scheme.empty()) return args.scheme;
  return args.bits == 3 ? "radar3" : "radar2";
}

void print_report(const core::PackageLoadReport& report) {
  std::printf("model:       %s\n", report.info.model_name.c_str());
  std::printf("layers:      %zu (%lld weights)\n", report.info.num_layers,
              static_cast<long long>(report.info.total_weights));
  std::printf("scheme:      %s (G=%lld %s)\n",
              report.info.scheme_id.c_str(),
              static_cast<long long>(report.info.params.group_size),
              report.info.params.interleave ? "interleaved" : "contiguous");
  std::printf("payload CRC: %s\n", report.crc_ok ? "ok" : "MISMATCH");
  std::printf("signatures:  %s\n",
              report.signatures_ok ? "ok" : "TAMPERING DETECTED");
  if (!report.signatures_ok) {
    for (std::size_t li = 0; li < report.tamper.flagged.size(); ++li) {
      if (report.tamper.flagged[li].empty()) continue;
      std::printf("  layer %zu: %zu flagged group(s)\n", li,
                  report.tamper.flagged[li].size());
    }
  }
}

int cmd_sign(const Args& args) {
  exp::ModelBundle bundle = exp::load_or_train(args.model);
  core::SchemeParams params;
  params.group_size = args.group;
  params.interleave = args.interleave;
  const std::string id = scheme_id(args);
  auto scheme = core::SchemeRegistry::instance().create(id, params);
  scheme->attach(*bundle.qmodel);
  core::save_package(args.package, *bundle.qmodel, *scheme, args.model);
  std::printf("signed %s with %s: %lld weights, %lld golden-code bytes -> %s\n",
              args.model.c_str(), id.c_str(),
              static_cast<long long>(bundle.qmodel->total_weights()),
              static_cast<long long>(scheme->signature_storage_bytes()),
              args.package.c_str());
  return 0;
}

int cmd_info(const Args& args) {
  const core::PackageInfo info = core::read_package_info(args.package);
  std::printf("model:   %s\n", info.model_name.c_str());
  std::printf("layers:  %zu (%lld weights)\n", info.num_layers,
              static_cast<long long>(info.total_weights));
  std::printf("scheme:  %s\n", info.scheme_id.c_str());
  std::printf("config:  G=%lld %s skew=%lld\n",
              static_cast<long long>(info.params.group_size),
              info.params.interleave ? "interleaved" : "contiguous",
              static_cast<long long>(info.params.skew));
  return 0;
}

int cmd_verify(const Args& args) {
  exp::ModelBundle bundle = exp::load_or_train(args.model);
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::PackageLoadOptions opts;
  opts.threads = args.threads;
  opts.mmap_golden = args.mmap_golden;
  const auto report =
      core::load_package(args.package, *bundle.qmodel, scheme, opts);
  print_report(report);
  if (args.mmap_golden)
    std::printf("golden copy: %s\n",
                report.golden_mmapped ? "mmap (zero-copy)" : "owned (mmap unavailable)");
  return report.verified() ? 0 : 1;
}

int cmd_pack(const Args& args) {
  if (args.subcommand != "inspect") {
    std::fprintf(stderr, "unknown pack subcommand %s (try: inspect)\n",
                 args.subcommand.c_str());
    return 2;
  }
  const core::PackageInfo info = core::read_package_info(args.package);
  std::printf("package: %s\n", args.package.c_str());
  std::printf("format:  v%u%s\n", info.format_version,
              info.format_version >= core::kPackageFormatV4
                  ? " (contiguous weight arena, mmap-ready, signed engine)"
              : info.format_version >= core::kPackageFormatV3
                  ? " (contiguous weight arena, mmap-ready)"
                  : " (per-layer vectors)");
  std::printf("model:   %s\n", info.model_name.c_str());
  // The master key is deliberately not printed (provisioned out of band;
  // keep it out of terminal scrollback and CI logs).
  std::printf("scheme:  %s  G=%lld %s skew=%lld expansion=%s\n",
              info.scheme_id.c_str(),
              static_cast<long long>(info.params.group_size),
              info.params.interleave ? "interleaved" : "contiguous",
              static_cast<long long>(info.params.skew),
              info.params.expansion == core::MaskStream::Expansion::kPrf
                  ? "prf"
                  : "repeat");
  std::printf("arena:   %lld bytes (%lld weights in %zu layers, %lld pad)\n",
              static_cast<long long>(info.arena_bytes),
              static_cast<long long>(info.total_weights), info.num_layers,
              static_cast<long long>(info.arena_bytes - info.total_weights));
  if (info.engine.ops.empty())
    std::printf("engine:  none (re-sign with `radar_cli sign` to serve)\n");
  else
    std::printf("engine:  %zu ops, %lld classes, calibrated on %lld images\n",
                info.engine.ops.size(),
                static_cast<long long>(info.engine.num_classes),
                static_cast<long long>(info.engine.calib_images));
  std::printf("%-5s %-28s %12s %10s %12s\n", "layer", "name", "offset",
              "size", "scale");
  for (std::size_t li = 0; li < info.layers.size(); ++li) {
    const auto& l = info.layers[li];
    std::printf("%-5zu %-28s %12lld %10lld %12.6g\n", li, l.name.c_str(),
                static_cast<long long>(l.offset),
                static_cast<long long>(l.size),
                static_cast<double>(l.scale));
  }
  if (args.predict == 0) return 0;

  // The signed engine over the first N test images, one image per forward
  // as the daemon's INFER runs them.
  exp::ModelBundle bundle = exp::make_bundle(args.model, false, false);
  std::unique_ptr<core::IntegrityScheme> scheme;
  core::PackageLoadReport report =
      core::load_package(args.package, *bundle.qmodel, scheme);
  RADAR_REQUIRE(report.verified(), "package failed verification");
  RADAR_REQUIRE(!report.info.engine.ops.empty(),
                "package carries no engine; re-sign it with `radar_cli sign`");
  qnn::InferenceEngine engine(*bundle.qmodel, std::move(report.info.engine));
  RADAR_REQUIRE(args.predict <= bundle.dataset->test_size(),
                "--predict exceeds the model's test split");
  qnn::QnnScratch scratch;
  nn::Tensor logits;
  for (std::int64_t i = 0; i < args.predict; ++i) {
    engine.forward_into(bundle.dataset->test_batch(i, 1).images, scratch,
                        logits);
    const float* row = logits.data();
    std::printf("prediction %lld %d\n", static_cast<long long>(i),
                static_cast<int>(std::max_element(
                                     row, row + engine.num_classes()) -
                                 row));
  }
  return 0;
}

int cmd_attack(const Args& args) {
  exp::ModelBundle bundle = exp::load_or_train(args.model);
  std::unique_ptr<core::IntegrityScheme> scheme;
  const auto report =
      core::load_package(args.package, *bundle.qmodel, scheme);
  if (!report.crc_ok)
    std::fprintf(stderr, "warning: package CRC already invalid\n");
  if (args.use_pbfa) {
    attack::Pbfa pbfa;
    data::Batch batch = bundle.dataset->attack_batch(16, 0xA77);
    const auto result = pbfa.run(*bundle.qmodel, batch, args.flips);
    std::printf("PBFA committed %zu flips (loss %.3f -> %.3f)\n",
                result.flips.size(), result.loss_before, result.loss_after);
  } else {
    Rng rng(0xBAD);
    attack::random_msb_flips(*bundle.qmodel, args.flips, rng);
    std::printf("flipped %d random MSBs\n", args.flips);
  }
  // Re-save with the ORIGINAL golden codes (the attacker cannot forge
  // them without the master key) and the original engine program.
  // Preserve the stored format version — the attack models in-place
  // corruption, not a format migration.
  core::save_package(args.package, *bundle.qmodel, *scheme,
                     report.info.model_name, report.info.format_version,
                     &report.info.engine);
  std::printf("tampered package written to %s\n", args.package.c_str());
  return 0;
}

int cmd_recover(const Args& args) {
  exp::ModelBundle bundle = exp::load_or_train(args.model);
  std::unique_ptr<core::IntegrityScheme> scheme;
  auto report = core::load_package(args.package, *bundle.qmodel, scheme,
                                   args.threads);
  print_report(report);
  if (report.signatures_ok) {
    std::printf("nothing to recover\n");
    return 0;
  }
  scheme->recover(*bundle.qmodel, report.tamper,
                  core::RecoveryPolicy::kZeroOut);
  scheme->resign(*bundle.qmodel);
  // The signed engine keeps its clean-model scales, as a serving host's
  // engine does across a run-time recovery.
  core::save_package(args.package, *bundle.qmodel, *scheme,
                     report.info.model_name, report.info.format_version,
                     &report.info.engine);
  const double acc = exp::accuracy_on_subset(bundle, 256);
  std::printf("zeroed %lld group(s), re-signed; accuracy now %.2f%%\n",
              static_cast<long long>(report.tamper.num_flagged_groups()),
              100.0 * acc);
  return 0;
}

int cmd_schemes(const Args&) {
  for (const auto& id : core::SchemeRegistry::instance().ids())
    std::printf("%s\n", id.c_str());
  return 0;
}

int cmd_campaign(const Args& args) {
  if (args.incremental && args.scheduled) {
    std::fprintf(stderr, "--incremental and --scheduled are exclusive\n");
    return 2;
  }
  const auto spec = campaign::CampaignSpec::from_json_file(args.package);
  campaign::EvalOptions eval = args.eval;
  if (args.scan_budget_us != INT64_MIN)
    eval.scan_budget_us = args.scan_budget_us;
  if (args.scan_budget_bytes != INT64_MIN)
    eval.scan_budget_bytes = args.scan_budget_bytes;
  eval.scan_chunk_bytes = args.scan_shard_bytes;
  campaign::CampaignRunner runner(args.threads, args.scan_threads,
                                  args.scheduled
                                      ? campaign::ScanMode::kScheduled
                                      : args.incremental
                                            ? campaign::ScanMode::kIncremental
                                            : campaign::ScanMode::kFull,
                                  eval);
  const campaign::CampaignReport report = runner.run(spec);
  report.print();
  if (args.timing) {
    const double ips =
        report.eval_seconds > 0.0
            ? static_cast<double>(report.eval_images) / report.eval_seconds
            : 0.0;
    std::printf(
        "timing: profile %.3fs (%lld images), eval %.3fs "
        "(%lld images, %.0f images/sec)\n",
        report.profile_seconds,
        static_cast<long long>(report.profile_images), report.eval_seconds,
        static_cast<long long>(report.eval_images), ips);
  }
  auto write_file = [](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };
  if (!args.out.empty() &&
      !write_file(args.out, report.to_json(args.timing)))
    return 1;
  if (!args.csv.empty() && !write_file(args.csv, report.to_csv()))
    return 1;
  return 0;
}

int cmd_serve(const Args& args) {
  if (args.socket.empty() || args.tenants.empty()) {
    std::fprintf(stderr,
                 "serve needs --socket <path> and at least one "
                 "--tenant <name>=<package>\n");
    return 2;
  }
  serve::ServeOptions opts;
  opts.workers = args.workers;
  opts.queue_capacity = args.queue_capacity;
  opts.scan = args.scan;
  opts.scan_shard_bytes = args.scan_shard_bytes;
  if (args.scan_budget_us != INT64_MIN)
    opts.scan_budget_us = args.scan_budget_us;
  if (args.scan_budget_bytes != INT64_MIN)
    opts.scan_budget_bytes = args.scan_budget_bytes;
  if (args.coverage_period_ms != INT64_MIN)
    opts.coverage_period_ms = args.coverage_period_ms;
  if (args.quarantine_threshold >= 0)
    opts.quarantine_threshold = args.quarantine_threshold;
  if (args.quarantine_window_ms > 0)
    opts.quarantine_window_ms = args.quarantine_window_ms;
  if (args.quarantine_backoff_ms > 0)
    opts.quarantine_backoff_ms = args.quarantine_backoff_ms;
  opts.watchdog = args.watchdog;
  if (args.watchdog_interval_ms > 0)
    opts.watchdog_interval_ms = args.watchdog_interval_ms;
  if (args.scanner_stall_ms > 0)
    opts.scanner_stall_ms = args.scanner_stall_ms;
  if (args.worker_stall_ms > 0)
    opts.worker_stall_ms = args.worker_stall_ms;
  if (args.default_deadline_ms >= 0)
    opts.default_deadline_ms = args.default_deadline_ms;
  serve::ModelHost host(opts);
  for (const std::string& spec : args.tenants) {
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      std::fprintf(stderr, "bad --tenant spec '%s' (want name=package)\n",
                   spec.c_str());
      return 2;
    }
    serve::TenantConfig cfg;
    cfg.name = spec.substr(0, eq);
    cfg.package_path = spec.substr(eq + 1);
    cfg.model_id = args.model;
    cfg.mmap_golden = args.serve_mmap;
    host.add_tenant(cfg);
  }
  serve::Daemon daemon(host, args.socket,
                       args.conn_timeout_ms >= 0 ? args.conn_timeout_ms
                                                 : 30000);
  daemon.start();
  // SIGINT/SIGTERM shut down as cleanly as a SHUTDOWN command: wait()
  // returns, then the socket closes, the queue drains and the scanner
  // joins below.
  serve::Daemon::install_signal_handlers();
  std::printf("serving %zu tenant(s) on %s (%zu workers, scanning %s)\n",
              host.num_tenants(), args.socket.c_str(), args.workers,
              args.scan ? "on" : "off");
  std::fflush(stdout);
  daemon.wait();  // until SHUTDOWN, SIGINT or SIGTERM
  daemon.stop();
  host.stop();
  std::printf("%s\n", host.stats().to_json().c_str());
  return 0;
}

/// One dispatch-table entry: usage metadata + positional arity + handler.
struct Command {
  const char* name;
  const char* usage;       ///< positional part, shown in help
  int num_positional;      ///< required positional args after the name
  int (*run)(const Args&);
};

constexpr Command kCommands[] = {
    {"sign", "sign <pkg> [--model M] [--scheme S|--bits 2|3] [--group N]",
     1, cmd_sign},
    {"info", "info <pkg>", 1, cmd_info},
    {"pack", "pack inspect <pkg> [--predict N] [--model M]", 2, cmd_pack},
    {"verify", "verify <pkg> [--model M] [--threads N] [--mmap]", 1,
     cmd_verify},
    {"attack", "attack <pkg> [--model M] [--flips N] [--pbfa]", 1,
     cmd_attack},
    {"recover", "recover <pkg> [--model M] [--threads N]", 1, cmd_recover},
    {"campaign",
     "campaign <spec.json> [--threads N] [--incremental | --scheduled] "
     "[--scan-budget-us N] [--scan-budget-bytes N] [--out J] [--csv C]",
     1, cmd_campaign},
    {"serve",
     "serve --socket <path> --tenant <name>=<pkg> [--tenant ...] "
     "[--workers N] [--no-scan] [--scan-budget-us N] "
     "[--scan-budget-bytes N] [--coverage-period-ms N] "
     "[--quarantine-threshold N] "
     "[--quarantine-window-ms N] [--quarantine-backoff-ms N] "
     "[--conn-timeout-ms N] [--deadline-ms N] [--no-watchdog] "
     "[--watchdog-interval-ms N] [--scanner-stall-ms N] "
     "[--worker-stall-ms N]",
     0, cmd_serve},
    {"schemes", "schemes", 0, cmd_schemes},
};

void print_usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& c : kCommands)
    std::fprintf(stderr, "  radar_cli %s\n", c.usage);
}

const Command* find_command(const std::string& name) {
  for (const Command& c : kCommands)
    if (name == c.name) return &c;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  Args args;
  args.command = argv[1];
  if (args.command == "help" || args.command == "--help" ||
      args.command == "-h") {
    print_usage();
    return 0;
  }
  const Command* cmd = find_command(args.command);
  if (cmd == nullptr) {
    std::fprintf(stderr, "unknown command %s\n", args.command.c_str());
    print_usage();
    return 2;
  }
  if (!parse_options(argc, argv, 2, args)) return 2;
  if (static_cast<int>(args.positional.size()) < cmd->num_positional) {
    std::fprintf(stderr, "usage: radar_cli %s\n", cmd->usage);
    return 2;
  }
  // Map positionals onto the legacy fields the handlers read.
  if (args.command == "pack") {
    args.subcommand = args.positional[0];
    args.package = args.positional[1];
  } else if (cmd->num_positional >= 1) {
    args.package = args.positional[0];
  }
  try {
    return cmd->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
