// One process, one trace: a 2-worker data-parallel run under one ObsSession
// writes exactly one Chrome trace, with a "rank R" track per worker thread and
// id-matched all-reduce flow arrows, and exactly one metrics JSONL stream that
// carries every worker's records.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "data/synthetic_mnist.h"
#include "dist/trainer.h"
#include "obs/json_min.h"
#include "obs/session.h"
#include "obs/trace.h"

namespace apa::dist {
namespace {

namespace fs = std::filesystem;
using obstools::JsonValue;

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs a tiny 2-worker data-parallel job under one ObsSession writing the
/// given outputs (an empty path disables that output); returns the number of
/// workers that finished.
int run_two_workers(const fs::path& dir, const std::string& trace_path,
                    const std::string& metrics_path) {
  data::SyntheticMnistOptions gen;
  gen.train_size = 128;
  gen.test_size = 1;
  gen.seed = 99;
  const data::Dataset train = data::make_synthetic_mnist(gen).train;
  const std::function<nn::Mlp()> factory = [] {
    nn::MlpConfig config;
    config.layer_sizes = {data::kImagePixels, 16, data::kNumClasses};
    config.seed = 7;
    return nn::Mlp(config, nn::MatmulBackend("classical"),
                   nn::MatmulBackend("classical"));
  };

  obs::ObsSession session(trace_path, metrics_path);
  DistTrainOptions options;
  options.workers = 2;
  options.batch = 16;
  options.steps = 4;
  options.checkpoint_every = 4;
  options.barrier_timeout_s = 20.0;
  options.checkpoint_dir = (dir / "ckpt").string();
  options.telemetry = session.telemetry();
  return train_data_parallel(factory, train, options).final_workers;
}

/// Ranks of the dist_worker records in one metrics JSONL file; every line
/// must parse.
std::set<long long> worker_ranks_in(const fs::path& metrics) {
  std::istringstream lines(slurp(metrics));
  std::set<long long> ranks;
  std::string error;
  for (std::string line; std::getline(lines, line);) {
    JsonValue record;
    EXPECT_TRUE(obstools::parse_json(line, &record, &error))
        << error << ": " << line;
    if (record.get_str("type", "") == "dist_worker") {
      ranks.insert(record.get_int("rank", -1));
    }
  }
  return ranks;
}

TEST(DistObsSession, TwoWorkersWriteOneTraceAndOneMetricsStream) {
  const fs::path dir = fs::temp_directory_path() / "apamm_dist_obs_session";
  fs::remove_all(dir);
  fs::create_directories(dir);

  EXPECT_EQ(run_two_workers(dir, (dir / "trace.json").string(),
                            (dir / "metrics.jsonl").string()),
            2);

  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".rank"),
              std::string::npos)
        << "per-rank output " << entry.path();
  }

  JsonValue trace;
  std::string error;
  ASSERT_TRUE(obstools::parse_json(slurp(dir / "trace.json"), &trace, &error))
      << error;
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> tracks;
  std::set<long long> flow_out;
  std::set<long long> flow_in;
  for (const JsonValue& ev : events->array) {
    const std::string ph = ev.get_str("ph", "");
    if (ph == "M" && ev.get_str("name", "") == "thread_name") {
      const JsonValue* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      tracks.insert(args->get_str("name", ""));
    } else if (ph == "s") {
      flow_out.insert(ev.get_int("id", -1));
    } else if (ph == "f") {
      flow_in.insert(ev.get_int("id", -1));
    }
  }
  if (obs::kCompiledIn) {
    EXPECT_TRUE(tracks.count("rank 0")) << "no rank 0 track";
    EXPECT_TRUE(tracks.count("rank 1")) << "no rank 1 track";
    EXPECT_FALSE(flow_in.empty());
    for (const long long id : flow_in) {
      EXPECT_TRUE(flow_out.count(id)) << "flow-in " << id << " has no flow-out";
    }
  }

  EXPECT_EQ(worker_ranks_in(dir / "metrics.jsonl"),
            (std::set<long long>{0, 1}));
  fs::remove_all(dir);
}

TEST(DistObsSession, MetricsOnlyRunWritesOneStreamAndNoTrace) {
  const fs::path dir = fs::temp_directory_path() / "apamm_dist_obs_metrics";
  fs::remove_all(dir);
  fs::create_directories(dir);

  EXPECT_EQ(run_two_workers(dir, /*trace_path=*/"",
                            (dir / "metrics.jsonl").string()),
            2);
  EXPECT_FALSE(obs::tracing());

  std::set<std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) files.insert(entry.path().filename());
  }
  EXPECT_EQ(files, (std::set<std::string>{"metrics.jsonl"}));
  EXPECT_EQ(worker_ranks_in(dir / "metrics.jsonl"),
            (std::set<long long>{0, 1}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apa::dist
