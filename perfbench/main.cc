// perfbench: end-to-end and per-layer benchmark of bwtk.
//
//   perfbench --workload <map_long|serve_short|serve_hotspot> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>] [--corrupt <kind>]
//
// Every run generates its inputs from the seed, sets the program up from a
// FASTA file exactly as examples/serve_tool does (forward FmIndex moved into
// BiFmIndex::FromForward), checks every answer, and prints one JSON object
// as its last line of output. With --trace 0 it measures the workload for
// --seconds and reports the end-to-end metrics; with --trace 1 it runs the
// per-layer ladder over a fixed seeded sample of the workload's queries and
// writes the spans as Chrome-trace JSON. perfbench/README.md has the method.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alphabet/fasta.h"
#include "bidir/bi_fm_index.h"
#include "bidir/bidir_search.h"
#include "bwt/fm_index.h"
#include "checks.h"
#include "inputs.h"
#include "search/algorithm_a.h"
#include "search/batch_searcher.h"
#include "search/stree_search.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/wire.h"
#include "spans.h"

namespace perfbench {
namespace {

using bwtk::BatchQuery;
using bwtk::Occurrence;

struct WorkloadSpec {
  const char* name;
  StreamSpec stream;
};

const WorkloadSpec kWorkloads[] = {
    {"map_long", {.read_length = 100, .k = 4, .substitution_rate = 0.02}},
    {"serve_short", {.read_length = 36, .k = 1, .substitution_rate = 0.01}},
    {"serve_hotspot",
     {.read_length = 36,
      .k = 1,
      .substitution_rate = 0.01,
      .hot_loci = 300,
      .burst = 16,
      .hot_window = 150,
      .exact_repeat_rate = 0.2}},
};

// The threads take turns on one CPU (PinToCpus says why): 2 batch workers
// in batch slices; one closed-loop client and 2 session workers in served
// slices. One client makes serving a strict ping-pong, with one runnable
// thread at a time. With two clients on the one CPU, ten runs of
// serve_hotspot fell into two modes, 13.6-14.1 k queries/s at p50 134-138 us
// and 17.2-18.7 k at 95-104 us.
constexpr int kMapWorkers = 2;
constexpr int kSessionWorkers = 2;
constexpr size_t kMapBatch = 256;
constexpr size_t kOracleStreamReads = 24;
// The timed part of a run alternates batch and served slices of this
// length. Before each slice the run serves queries for kPickSeconds on each
// CPU it may use and moves to the one where their median latency was
// lowest (MoveToFastestCpu says why). The host's slow spells on a vCPU can
// be shorter than a second: with 0.5 s served slices, a quarter of the
// slices read a slow p90 while their p50 was fast, and the p90 of five
// serve_hotspot runs spread 14% against 10% with 0.25 s slices. With
// 0.1 s slices it spread 24%, though in a slower hour.
constexpr double kSliceSeconds = 0.25;
// A metric is this quantile of its slices' latencies (1 minus it for
// rates). The pick keeps most slices off a slowed vCPU, but 7-34% of
// served slices per run still read p50 above 60 us; over 25 runs, as that
// share went from 0.1 to 0.3, the median over slices of the slices' p90
// rose by about 23% and the first quartile by about 15%.
constexpr double kSliceQuantile = 0.25;
constexpr double kPickSeconds = 0.005;
constexpr double kWarmupSeconds = 0.5;
constexpr int kLadderReps = 3;
constexpr size_t kGenomeBases = 1'000'000;
// The genome and the hot-spot loci are one fixed draw, the same in every
// run; --seed draws the queries. Run-to-run spread then reflects the
// program and the machine, not which loci a seed made hot.
constexpr uint64_t kGenomeSeed = 1;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
  Corruption corrupt = Corruption::kNone;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--corrupt") {
      if (!ParseCorruption(value, &args->corrupt)) return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Time of a set of CPUs from /proc/stat, in clock ticks: all of it, and the
// share the host ran other guests on them (steal).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes(const cpu_set_t& cpus) {
  CpuTimes times;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return times;
  char line[512];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    int cpu = 0;
    unsigned long long t[8];
    if (std::strncmp(line, "cpu", 3) != 0 || !std::isdigit(line[3]) ||
        std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu", &cpu,
                    &t[0], &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) != 9 ||
        cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &cpus)) {
      continue;
    }
    for (unsigned long long v : t) times.total += v;
    times.steal += t[7];
  }
  std::fclose(f);
  return times;
}

// Share of the CPUs' time between two readings that the host took.
double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const uint64_t total = to.total - from.total;
  if (total == 0) return 0;
  return std::min(0.9, static_cast<double>(to.steal - from.steal) /
                           static_cast<double>(total));
}

// Anonymous resident memory: resident minus file-backed pages, so code
// pages faulted in on first use do not count.
size_t AnonymousResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0, shared = 0;
  const int read = std::fscanf(f, "%llu %llu %llu", &size, &resident, &shared);
  std::fclose(f);
  return read == 3 ? static_cast<size_t>(resident - shared) *
                         static_cast<size_t>(sysconf(_SC_PAGESIZE))
                   : 0;
}

// Thread-safe record of failed checks; the first few are printed.
class Verdict {
 public:
  void Fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++failures_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
  }
  void Check(const std::string& failure) {
    if (!failure.empty()) Fail(failure);
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;  // guarded by mu_
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Everything one run shares: inputs, checks and the failure record.
struct Context {
  const WorkloadSpec* workload = nullptr;
  Args args;
  std::vector<bwtk::DnaCode> text;
  std::optional<QueryStream> stream;
  std::optional<Checker> checker;
  Verdict verdict;
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  SpanLog spans;
  cpu_set_t allowed;  // the CPUs the process may use
  cpu_set_t cpus;     // the one it runs on now

  int32_t k() const { return workload->stream.k; }
  // Applies the requested corruption (self-test) and the property checks.
  void CheckAnswer(const Read& read, std::vector<Occurrence>* hits) {
    Corrupt(args.corrupt, text, read, k(), hits);
    verdict.Check(checker->Properties(read, *hits));
  }
  void CheckOracle(const Read& read, std::vector<Occurrence>* hits,
                   const std::vector<Occurrence>& oracle) {
    Corrupt(args.corrupt, text, read, k(), hits);
    verdict.Check(checker->AgainstOracle(read, *hits, oracle));
  }
};

// The oracle sample: the stream's first reads plus one read with exactly j
// substitutions for every j in 0..k, so the oracle's lists hold hits at
// every mismatch count. The measured stream starts after it.
struct Sample {
  std::vector<Read> reads;
  std::vector<std::vector<Occurrence>> oracle;
};

Sample MakeSample(Context* ctx) {
  Sample sample;
  for (uint64_t i = 0; i < kOracleStreamReads; ++i) {
    sample.reads.push_back(ctx->stream->At(i));
  }
  for (int j = 0; j <= ctx->k(); ++j) {
    sample.reads.push_back(ctx->stream->WithSubstitutions(j, j));
  }
  std::vector<bool> counts(ctx->k() + 1, false);
  for (const Read& read : sample.reads) {
    sample.oracle.push_back(HammingScan(ctx->text, read.codes, ctx->k()));
    for (const auto& hit : sample.oracle.back()) counts[hit.mismatches] = true;
  }
  for (int j = 0; j <= ctx->k(); ++j) {
    if (!counts[j]) {
      ctx->verdict.Fail("oracle sample has no hit with " + std::to_string(j) +
                        " mismatches");
    }
  }
  return sample;
}

// One path's walk over the stream (see RunTimed): every index after the
// oracle sample's reads once, from `first`, wrapping past the end.
class Walk {
 public:
  Walk(const QueryStream& stream, uint64_t first)
      : length_(stream.length()), first_(first) {}
  uint64_t left() const { return length_ - kOracleStreamReads - done_; }
  bool used_up() const { return left() == 0; }
  uint64_t Next() {
    const uint64_t index = first_ + done_++;
    return index < length_ ? index : index - length_ + kOracleStreamReads;
  }

 private:
  uint64_t length_;
  uint64_t first_;
  uint64_t done_ = 0;
};

// Exact-repeat and shared-prefix shares of the queries a phase sends,
// counted over 64-bit hashes of the reads and of their first halves.
class RepeatCounter {
 public:
  void Add(std::string_view ascii) {
    exact_.push_back(std::hash<std::string_view>{}(ascii));
    prefix_.push_back(
        std::hash<std::string_view>{}(ascii.substr(0, ascii.size() / 2)));
  }
  void Report(const char* phase, size_t read_length) const {
    const double sent = static_cast<double>(std::max<size_t>(exact_.size(), 1));
    std::fprintf(stderr,
                 "%s path: %zu queries sent, %.2f%% exact repeats, %.2f%% "
                 "repeat a %zu-base prefix\n",
                 phase, exact_.size(), 100.0 * Repeats(exact_) / sent,
                 100.0 * Repeats(prefix_) / sent, read_length / 2);
  }

 private:
  static size_t Repeats(std::vector<uint64_t> hashes) {
    std::sort(hashes.begin(), hashes.end());
    return hashes.size() - static_cast<size_t>(std::distance(
                               hashes.begin(),
                               std::unique(hashes.begin(), hashes.end())));
  }
  std::vector<uint64_t> exact_, prefix_;
};

std::vector<BatchQuery> ToQueries(const std::vector<Read>& reads, int32_t k) {
  std::vector<BatchQuery> queries;
  queries.reserve(reads.size());
  for (const Read& read : reads) queries.push_back({read.codes, k});
  return queries;
}

// The program under test, set up as examples/serve_tool sets it up.
// Members are declared so that the server stops before the session.
struct Program {
  std::optional<bwtk::BiFmIndex> index;
  std::unique_ptr<bwtk::BatchSearcher> batch;
  std::unique_ptr<bwtk::serve::Session> session;
  std::unique_ptr<bwtk::serve::Server> server;

  double fasta_read_s = 0;
  double fm_build_s = 0;
  double bidir_build_s = 0;
  double setup_s = 0;
  double index_mb = 0;

  bwtk::BatchOptions BatchOptionsFor(int threads) const {
    bwtk::BatchOptions options;
    options.num_threads = threads;
    options.bidir_indexes = {&*index};
    return options;
  }
  void StartBatch(int threads) {
    batch = std::make_unique<bwtk::BatchSearcher>(&index->forward(),
                                                  BatchOptionsFor(threads));
  }
  bwtk::Status StartServing() {
    bwtk::serve::SessionOptions options;
    options.num_threads = kSessionWorkers;
    options.batch.bidir_indexes = {&*index};
    session = std::make_unique<bwtk::serve::Session>(&index->forward(), options);
    server = std::make_unique<bwtk::serve::Server>(session.get());
    return server->Start();
  }
};

bwtk::Status SetUp(const std::string& fasta, Context* ctx, Program* program) {
  const size_t rss_before = AnonymousResidentBytes();
  const int64_t t0 = NowNs();
  auto records = bwtk::ReadFastaFile(fasta);
  if (!records.ok()) return records.status();
  const int64_t t1 = NowNs();
  auto forward = bwtk::FmIndex::Build(records.value().front().sequence);
  if (!forward.ok()) return forward.status();
  records = bwtk::Result<std::vector<bwtk::FastaRecord>>(
      std::vector<bwtk::FastaRecord>{});
  const int64_t t2 = NowNs();
  auto pair = bwtk::BiFmIndex::FromForward(std::move(forward).value());
  if (!pair.ok()) return pair.status();
  program->index.emplace(std::move(pair).value());
  const int64_t t3 = NowNs();
  // Resident-set growth across the index build, after freed heap pages go
  // back to the kernel, so build temporaries do not count as index memory.
  // Read before the worker pools start, whose thread stacks and arenas
  // would otherwise race with the reading.
  malloc_trim(0);
  program->index_mb = static_cast<double>(AnonymousResidentBytes()) / 1e6 -
                      static_cast<double>(rss_before) / 1e6;
  program->StartBatch(kMapWorkers);
  BWTK_RETURN_IF_ERROR(program->StartServing());
  const int64_t t4 = NowNs();
  ctx->spans.Add("ReadFastaFile", "alphabet", 0, t0, t1);
  ctx->spans.Add("FmIndex::Build", "bwt", 0, t1, t2);
  ctx->spans.Add("BiFmIndex::FromForward", "bidir", 0, t2, t3);
  ctx->spans.Add("BatchSearcher+Server::Start", "setup", 0, t3, t4);
  program->fasta_read_s = Seconds(t1 - t0);
  program->fm_build_s = Seconds(t2 - t1);
  program->bidir_build_s = Seconds(t3 - t2);
  program->setup_s = Seconds(t4 - t0);
  return bwtk::Status::OK();
}

// ----------------------------------------------------------- timed slices

// Offline mapping: whole batches of the phase's slice of the stream
// through BatchSearcher.
struct BatchLoad {
  Walk walk;
  size_t batches = 0;
  std::vector<double> reads_per_s;  // one per timed slice
  RepeatCounter sent;
};

// Runs whole batches until `seconds` have passed, at least one. A timed
// slice adds its rate: reads over the time spent inside Search, with the
// share of the time the host stole from the CPU taken out.
void RunBatchSlice(Context* ctx, Program* program, double seconds, bool timed,
                   BatchLoad* load) {
  const CpuTimes before = ReadCpuTimes(ctx->cpus);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t batches = 0;
  double searching_s = 0;
  do {
    if (load->walk.left() < kMapBatch) break;  // whole batches only
    std::vector<Read> reads;
    reads.reserve(kMapBatch);
    for (size_t i = 0; i < kMapBatch; ++i) {
      reads.push_back(ctx->stream->At(load->walk.Next()));
      load->sent.Add(reads.back().ascii);
    }
    const std::vector<BatchQuery> queries = ToQueries(reads, ctx->k());
    const int64_t t0 = NowNs();
    bwtk::BatchResult result = program->batch->Search(queries);
    searching_s += Seconds(NowNs() - t0);
    ctx->attempted += reads.size();
    for (size_t i = 0; i < reads.size(); ++i) {
      ctx->CheckAnswer(reads[i], &result.occurrences[i]);
    }
    ++batches;
  } while (NowNs() < deadline);
  if (timed && batches > 0) {
    const double steal = StealShare(before, ReadCpuTimes(ctx->cpus));
    load->batches += batches;
    load->reads_per_s.push_back(static_cast<double>(batches * kMapBatch) /
                                (searching_s * (1 - steal)));
  }
}

// One closed-loop client, the main thread: it sends a query, waits for the
// reply and checks it, over the phase's slice of the stream.
struct ServedLoad {
  Walk walk;
  bool broken = false;  // a transport error ended the connection
  size_t queries = 0;
  std::vector<double> qps, p50_us, p90_us;  // one each per timed slice
  std::vector<double> cpu;  // the CPU each timed slice ran on
  // serve_hotspot: first answer seen per pattern, for the repeat check.
  std::unordered_map<std::string, std::vector<Occurrence>> answers;
  RepeatCounter sent;
};

// Sends one query; returns its latency in us, or a negative value when the
// query failed.
double ServeOne(Context* ctx, bwtk::serve::Client* client, const Read& read,
                const std::vector<Occurrence>* oracle, ServedLoad* load) {
  const int64_t t0 = NowNs();
  auto response = client->Query(read.ascii, ctx->k());
  const int64_t t1 = NowNs();
  ctx->attempted.fetch_add(1, std::memory_order_relaxed);
  load->sent.Add(read.ascii);
  if (!response.ok()) {
    ctx->failed.fetch_add(1, std::memory_order_relaxed);
    ctx->verdict.Fail("query failed: " + response.status().ToString());
    // A transport error ends the connection; a refused query does not.
    load->broken = response.status().code() == bwtk::StatusCode::kIoError ||
                   response.status().code() == bwtk::StatusCode::kCorruption;
    return -1;
  }
  std::vector<Occurrence> hits = std::move(response.value().hits);
  if (oracle != nullptr) {
    ctx->CheckOracle(read, &hits, *oracle);
  } else {
    ctx->CheckAnswer(read, &hits);
  }
  if (ctx->workload->stream.hot_loci > 0) {
    auto [it, inserted] = load->answers.try_emplace(read.ascii, hits);
    if (!inserted && it->second != hits) {
      ctx->verdict.Fail("repeated query answered differently: " + read.ascii);
    }
  }
  return static_cast<double>(t1 - t0) / 1e3;
}

// Serves queries until `seconds` have passed. A timed slice adds its rate,
// queries over the time spent inside Client::Query with the stolen share
// taken out, and its latency quantiles.
void RunServedSlice(Context* ctx, bwtk::serve::Client* client, double seconds,
                    bool timed, ServedLoad* load) {
  const CpuTimes before = ReadCpuTimes(ctx->cpus);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<double> latency_us;
  double querying_us = 0;
  while (NowNs() < deadline && !load->broken && !load->walk.used_up()) {
    const double us = ServeOne(ctx, client, ctx->stream->At(load->walk.Next()),
                               nullptr, load);
    if (us >= 0) {
      latency_us.push_back(us);
      querying_us += us;
    }
  }
  if (timed && !latency_us.empty()) {
    const double steal = StealShare(before, ReadCpuTimes(ctx->cpus));
    load->queries += latency_us.size();
    load->qps.push_back(static_cast<double>(latency_us.size()) /
                        (querying_us / 1e6 * (1 - steal)));
    load->p50_us.push_back(Quantile(latency_us, 0.50));
    load->p90_us.push_back(Quantile(latency_us, 0.90));
  }
}

// Moves every thread of the process, the program's included, to `cpu`.
// Threads the program starts later inherit the CPU from their parent.
void MoveTo(Context* ctx, int cpu) {
  CPU_ZERO(&ctx->cpus);
  CPU_SET(cpu, &ctx->cpus);
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(task.path().filename().c_str()));
    sched_setaffinity(tid, sizeof(ctx->cpus), &ctx->cpus);
  }
}

int CurrentCpu(const Context& ctx) {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &ctx.cpus)) return cpu;
  }
  return -1;
}

// Serves queries of the served path for kPickSeconds on each CPU the
// process may use, checked but not timed, and moves the process to the CPU
// where their median latency was lowest. The host slows single vCPUs for seconds
// at a time: served on each of four vCPUs in turn, 0.5 s each, the same
// queries read p50 latencies of 47-52 us on two vCPUs and 72-78 us on the
// other two at the same moment, and which vCPUs were slow changed within
// seconds. Measured where the host leaves a CPU alone, the figures follow
// the program rather than which vCPU the host slowed.
void MoveToFastestCpu(Context* ctx, bwtk::serve::Client* client,
                      ServedLoad* served) {
  int fastest = -1;
  double lowest = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &ctx->allowed)) continue;
    MoveTo(ctx, cpu);
    std::vector<double> latency_us;
    const int64_t until = NowNs() + static_cast<int64_t>(kPickSeconds * 1e9);
    do {
      if (served->walk.used_up() || served->broken) break;
      const double us = ServeOne(ctx, client, ctx->stream->At(served->walk.Next()),
                                 nullptr, served);
      if (us >= 0) latency_us.push_back(us);
    } while (NowNs() < until);
    const double median = Median(latency_us);
    if (fastest < 0 || median < lowest) {
      fastest = cpu;
      lowest = median;
    }
  }
  MoveTo(ctx, fastest);
}

// The measured part of an untraced run: batch and served slices of
// kSliceSeconds in turn, each on the CPU MoveToFastestCpu picks for it,
// until `seconds` have passed. Each metric is the kSliceQuantile of its
// slices' values, on the fast side.
//
// Each path sends every read of the stream after the oracle sample at most
// once: batches from the start, served queries from the middle, both
// wrapping. With unique loci no path then sends an origin twice, apart from
// the oracle sample's k + 1 reads at random loci. The two paths can send
// the same origin, but they share no reuse state: the BatchSearcher and the
// Session each own theirs. A path that has used up the stream stops before
// the run's time is spent, and the run says so on standard error.
void RunTimed(Context* ctx, Program* program, const Sample& sample,
              double seconds, std::vector<Metric>* metrics) {
  auto connected =
      bwtk::serve::Client::Connect("127.0.0.1", program->server->port());
  if (!connected.ok()) {
    ctx->verdict.Fail("connect: " + connected.status().ToString());
    return;
  }
  bwtk::serve::Client* client = connected.value().get();
  BatchLoad batch{Walk(*ctx->stream, kOracleStreamReads)};
  ServedLoad served{Walk(*ctx->stream, ctx->stream->length() / 2)};

  // Warm-up, checked against the oracle where it has answers, not timed.
  {
    bwtk::BatchResult result =
        program->batch->Search(ToQueries(sample.reads, ctx->k()));
    ctx->attempted += sample.reads.size();
    for (size_t i = 0; i < sample.reads.size(); ++i) {
      batch.sent.Add(sample.reads[i].ascii);
      ctx->CheckOracle(sample.reads[i], &result.occurrences[i], sample.oracle[i]);
    }
  }
  for (size_t i = 0; i < sample.reads.size(); ++i) {
    ServeOne(ctx, client, sample.reads[i], &sample.oracle[i], &served);
  }
  RunBatchSlice(ctx, program, 0, false, &batch);
  RunServedSlice(ctx, client, kWarmupSeconds, false, &served);

  const CpuTimes before = ReadCpuTimes(ctx->allowed);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < deadline) {
    const bool batch_left = batch.walk.left() >= kMapBatch;
    const bool served_left = !served.walk.used_up() && !served.broken;
    if (!batch_left && !served_left) break;
    if (batch_left) {
      MoveToFastestCpu(ctx, client, &served);
      RunBatchSlice(ctx, program, kSliceSeconds, true, &batch);
    }
    if (served_left) {
      MoveToFastestCpu(ctx, client, &served);
      served.cpu.push_back(CurrentCpu(*ctx));
      RunServedSlice(ctx, client, kSliceSeconds, true, &served);
    }
  }
  std::fprintf(stderr,
               "timed: %zu batch slices, %zu batches of %zu reads%s; %zu "
               "served slices, %zu queries%s; %.1f%% steal\n",
               batch.reads_per_s.size(), batch.batches, kMapBatch,
               batch.walk.left() < kMapBatch ? ", ended by the end of the stream" : "",
               served.qps.size(), served.queries,
               served.walk.used_up() ? ", ended by the end of the stream" : "",
               100 * StealShare(before, ReadCpuTimes(ctx->allowed)));
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) out += (out.empty() ? "" : ",") + std::to_string(x);
    return "[" + out + "]";
  };
  std::fprintf(stderr,
               "slices: {\"cpu\": %s, \"map\": %s, \"qps\": %s, \"p50\": %s, \"p90\": %s}\n",
               list(served.cpu).c_str(), list(batch.reads_per_s).c_str(), list(served.qps).c_str(),
               list(served.p50_us).c_str(), list(served.p90_us).c_str());
  batch.sent.Report("batch", ctx->workload->stream.read_length);
  served.sent.Report("served", ctx->workload->stream.read_length);
  if (batch.reads_per_s.empty()) ctx->verdict.Fail("no timed batch slice");
  if (served.qps.empty()) ctx->verdict.Fail("no timed served slice");
  metrics->push_back({"map_reads_per_s", Quantile(batch.reads_per_s, 1 - kSliceQuantile), "reads/s"});
  metrics->push_back({"serve_qps", Quantile(served.qps, 1 - kSliceQuantile), "1/s"});
  metrics->push_back({"serve_p50_us", Quantile(served.p50_us, kSliceQuantile), "us"});
  metrics->push_back({"serve_p90_us", Quantile(served.p90_us, kSliceQuantile), "us"});
}

// ------------------------------------------------------------------ ladder

// The traced run: every layer's public functions called directly on the
// oracle sample, round after round until --seconds is spent. A per-query
// timing is the median over its calls; the metric is the median of those
// over the sample's queries.
struct PerQuery {
  explicit PerQuery(size_t n) : times(n) {}
  void Add(size_t q, double value) { times[q].push_back(value); }
  double MedianOfMedians() const {
    std::vector<double> medians;
    for (const auto& t : times) medians.push_back(Median(t));
    return Median(medians);
  }
  std::vector<std::vector<double>> times;
};

void RunLadder(Context* ctx, Program* program, const Sample& sample,
               std::vector<Metric>* metrics) {
  const bwtk::BiFmIndex& bi = *program->index;
  const bwtk::FmIndex& fm = bi.forward();
  const int32_t k = ctx->k();
  const size_t n = sample.reads.size();
  SpanLog& spans = ctx->spans;

  auto connected = bwtk::serve::Client::Connect("127.0.0.1", program->server->port());
  if (!connected.ok()) {
    ctx->verdict.Fail("connect: " + connected.status().ToString());
    return;
  }
  bwtk::serve::Client& client = *connected.value();
  // One worker: its wall time per query minus the engine's is dispatch.
  bwtk::BatchSearcher batch(&fm, program->BatchOptionsFor(1));

  // The three Hamming engines, called directly.
  bwtk::AlgorithmA algorithm_a(&fm);
  bwtk::AlgorithmAScratch scratch;
  bwtk::STreeSearch stree(&fm);
  bwtk::BidirectionalSearch bidirectional(&bi);
  struct Engine {
    const char* name;
    std::function<std::vector<Occurrence>(const Read&, bwtk::SearchStats*)> run;
    PerQuery us;
    double extend_calls = 0;
    double completed_paths = 0;
  };
  std::vector<Engine> engines;
  engines.push_back({"algorithm_a",
                     [&](const Read& r, bwtk::SearchStats* s) {
                       return algorithm_a.Search(r.codes, k, s, &scratch);
                     },
                     PerQuery(n)});
  engines.push_back({"stree",
                     [&](const Read& r, bwtk::SearchStats* s) {
                       return stree.Search(r.codes, k, s);
                     },
                     PerQuery(n)});
  engines.push_back({"bidirectional",
                     [&](const Read& r, bwtk::SearchStats* s) {
                       return bidirectional.Search(r.codes, k, s);
                     },
                     PerQuery(n)});
  // The engine BatchSearcher and Session run when left at their defaults.
  bwtk::BatchEngine default_engine = bwtk::BatchOptions{}.engine;
  if (default_engine == bwtk::BatchEngine::kAuto) {
    default_engine = bwtk::AutoPickEngine(ctx->workload->stream.read_length, k, true);
  }
  const std::string default_name(bwtk::BatchEngineName(default_engine));

  // bwt inputs, from the sample's own reads: every exact backward-search
  // step until the range empties, and the deepest small range to locate.
  std::vector<std::pair<bwtk::FmIndex::Range, bwtk::DnaCode>> steps;
  std::vector<std::pair<bwtk::FmIndex::Range, size_t>> locates;
  for (const Read& read : sample.reads) {
    bwtk::FmIndex::Range range = fm.WholeRange();
    std::optional<std::pair<bwtk::FmIndex::Range, size_t>> deepest;
    for (size_t d = 0; d < read.codes.size(); ++d) {
      steps.push_back({range, read.codes[d]});
      range = fm.Extend(range, read.codes[d]);
      if (range.empty()) break;
      if (range.count() <= 64) deepest = {{range, d + 1}};
    }
    if (deepest) locates.push_back(*deepest);
  }

  PerQuery session_us(n), tcp_us(n);

  std::vector<double> queue_us, dispatch_us, extend_ns, extend_all_ns,
      locate_ns, query_encode_ns, result_encode_ns, query_decode_ns,
      result_decode_ns;
  double bytes_per_query = 0;
  double hits_per_query = 0;
  uint64_t sink = 0;
  const std::vector<BatchQuery> queries = ToQueries(sample.reads, k);
  const int64_t deadline = NowNs() + static_cast<int64_t>(ctx->args.seconds * 1e9);
  int rounds = 0;
  Engine* default_direct = nullptr;
  for (Engine& engine : engines) {
    if (engine.name == default_name) default_direct = &engine;
  }
  for (; rounds < 3 || (NowNs() < deadline && rounds < 1000); ++rounds) {
    const bool first = rounds == 0;
    for (size_t q = 0; q < n; ++q) {
      const Read& read = sample.reads[q];
      const uint64_t id = q + 1;
      // Every engine once untimed, then once timed: the timed call finds
      // the caches as that engine leaves them.
      for (Engine& engine : engines) {
        bwtk::SearchStats stats;
        engine.run(read, &stats);
        const int64_t t0 = NowNs();
        std::vector<Occurrence> hits = engine.run(read, &stats);
        const int64_t t1 = NowNs();
        spans.Add(engine.name, "search", id, t0, t1);
        engine.us.Add(q, static_cast<double>(t1 - t0) / 1e3);
        if (first) {
          engine.extend_calls += static_cast<double>(stats.extend_calls) / n;
          engine.completed_paths += static_cast<double>(stats.completed_paths) / n;
          ctx->attempted += 1;
          ctx->CheckOracle(read, &hits, sample.oracle[q]);
        }
      }
      // The ladder proper: the default engine, the session and the TCP
      // path on the same query, interleaved in rotating order so that
      // drift in the machine's load falls on all three alike.
      for (int rep = 0; rep < kLadderReps; ++rep) {
        for (int step = 0; step < 3; ++step) {
          const int layer = (rep + step) % 3;
          if (layer == 0 && default_direct != nullptr) {
            bwtk::SearchStats stats;
            const int64_t t0 = NowNs();
            default_direct->run(read, &stats);
            const int64_t t1 = NowNs();
            spans.Add(default_direct->name, "search", id, t0, t1);
            default_direct->us.Add(q, static_cast<double>(t1 - t0) / 1e3);
          } else if (layer == 1) {
            const int64_t t0 = NowNs();
            auto ticket = program->session->Submit(queries[q]);
            auto result = ticket.ok() ? program->session->Wait(ticket.value())
                                      : bwtk::Result<bwtk::serve::QueryResult>(
                                            ticket.status());
            const int64_t t1 = NowNs();
            spans.Add("Session::Submit+Wait", "serve.session", id, t0, t1);
            ctx->attempted += 1;
            if (!result.ok() || !result.value().status.ok()) {
              ctx->failed += 1;
              ctx->verdict.Fail("session query failed");
            } else {
              session_us.Add(q, static_cast<double>(t1 - t0) / 1e3);
              queue_us.push_back(static_cast<double>(result.value().queue_ns) / 1e3);
              std::vector<Occurrence> hits = result.value().hits;
              ctx->CheckOracle(read, &hits, sample.oracle[q]);
            }
          } else if (layer == 2) {
            const int64_t t0 = NowNs();
            auto response = client.Query(read.ascii, k);
            const int64_t t1 = NowNs();
            spans.Add("Client::Query", "serve.client", id, t0, t1);
            ctx->attempted += 1;
            if (!response.ok()) {
              ctx->failed += 1;
              ctx->verdict.Fail("tcp query failed: " + response.status().ToString());
            } else {
              tcp_us.Add(q, static_cast<double>(t1 - t0) / 1e3);
              std::vector<Occurrence> hits = response.value().hits;
              ctx->CheckOracle(read, &hits, sample.oracle[q]);
            }
          }
        }
      }
    }
    // Dispatch: the one-worker batch against the default engine called
    // directly on the same queries, in alternating order across rounds.
    if (default_direct != nullptr) {
      int64_t direct_ns = 0, batch_ns = 0;
      for (int pass = 0; pass < 2; ++pass) {
        if ((pass + rounds) % 2 == 0) {
          const int64_t t0 = NowNs();
          for (const Read& read : sample.reads) {
            bwtk::SearchStats stats;
            default_direct->run(read, &stats);
          }
          direct_ns = NowNs() - t0;
        } else {
          const int64_t t0 = NowNs();
          bwtk::BatchResult result = batch.Search(queries);
          const int64_t t1 = NowNs();
          batch_ns = t1 - t0;
          spans.Add("BatchSearcher::Search", "search.batch", 0, t0, t1);
          ctx->attempted += n;
          for (size_t q = 0; q < n; ++q) {
            ctx->CheckOracle(sample.reads[q], &result.occurrences[q],
                             sample.oracle[q]);
          }
        }
      }
      dispatch_us.push_back(static_cast<double>(batch_ns - direct_ns) / 1e3 /
                            static_cast<double>(n));
    }
    // bwt primitives: loops long enough to rise above the clock's cost.
    constexpr int kReps = 50;
    {
      const int64_t t0 = NowNs();
      for (int r = 0; r < kReps; ++r) {
        for (const auto& [range, c] : steps) sink += fm.Extend(range, c).lo;
      }
      const int64_t t1 = NowNs();
      spans.Add("FmIndex::Extend", "bwt", 0, t0, t1);
      extend_ns.push_back(static_cast<double>(t1 - t0) / (kReps * steps.size()));
    }
    {
      bwtk::FmIndex::Range out[bwtk::kDnaAlphabetSize];
      const int64_t t0 = NowNs();
      for (int r = 0; r < kReps; ++r) {
        for (const auto& step : steps) {
          fm.ExtendAll(step.first, out);
          sink += out[3].hi;
        }
      }
      const int64_t t1 = NowNs();
      spans.Add("FmIndex::ExtendAll", "bwt", 0, t0, t1);
      extend_all_ns.push_back(static_cast<double>(t1 - t0) / (kReps * steps.size()));
    }
    {
      size_t located = 0;
      const int64_t t0 = NowNs();
      for (const auto& [range, depth] : locates) {
        const std::vector<size_t> positions = fm.Locate(range, depth);
        located += positions.size();
        sink += positions.empty() ? 0 : positions.front();
      }
      const int64_t t1 = NowNs();
      spans.Add("FmIndex::Locate", "bwt", 0, t0, t1);
      if (located > 0) locate_ns.push_back(static_cast<double>(t1 - t0) / located);
    }
    // Wire codec on the sample's queries and the oracle's answers.
    {
      std::vector<std::string> query_frames(n), result_frames(n);
      int64_t enc_q = 0, enc_r = 0, dec_q = 0, dec_r = 0;
      size_t bytes = 0;
      for (size_t q = 0; q < n; ++q) {
        bwtk::serve::QueryRequest request;
        request.request_id = q + 1;
        request.k = k;
        request.pattern = sample.reads[q].ascii;
        bwtk::serve::QueryResponse response;
        response.request_id = q + 1;
        response.hits = sample.oracle[q];
        int64_t t0 = NowNs();
        for (int r = 0; r < kReps; ++r) {
          query_frames[q].clear();
          bwtk::serve::AppendQueryFrame(request, &query_frames[q]);
        }
        int64_t t1 = NowNs();
        enc_q += t1 - t0;
        spans.Add("AppendQueryFrame", "serve.wire", q + 1, t0, t1);
        t0 = NowNs();
        for (int r = 0; r < kReps; ++r) {
          result_frames[q].clear();
          bwtk::serve::AppendResultFrame(response, &result_frames[q]);
        }
        t1 = NowNs();
        enc_r += t1 - t0;
        spans.Add("AppendResultFrame", "serve.wire", q + 1, t0, t1);
        const std::string_view query_payload =
            std::string_view(query_frames[q]).substr(5);
        const std::string_view result_payload =
            std::string_view(result_frames[q]).substr(5);
        t0 = NowNs();
        for (int r = 0; r < kReps; ++r) {
          auto parsed = bwtk::serve::ParseQueryPayload(query_payload);
          sink += parsed.ok() ? parsed.value().pattern.size() : 0;
        }
        t1 = NowNs();
        dec_q += t1 - t0;
        spans.Add("ParseQueryPayload", "serve.wire", q + 1, t0, t1);
        t0 = NowNs();
        for (int r = 0; r < kReps; ++r) {
          auto parsed = bwtk::serve::ParseResultPayload(result_payload);
          sink += parsed.ok() ? parsed.value().hits.size() : 0;
        }
        t1 = NowNs();
        dec_r += t1 - t0;
        spans.Add("ParseResultPayload", "serve.wire", q + 1, t0, t1);
        bytes += query_frames[q].size() + result_frames[q].size();
        if (first) {
          auto parsed = bwtk::serve::ParseResultPayload(result_payload);
          if (!parsed.ok() || parsed.value().hits != sample.oracle[q]) {
            ctx->verdict.Fail("result frame did not round-trip");
          }
        }
      }
      const double calls = static_cast<double>(kReps * n);
      query_encode_ns.push_back(static_cast<double>(enc_q) / calls);
      result_encode_ns.push_back(static_cast<double>(enc_r) / calls);
      query_decode_ns.push_back(static_cast<double>(dec_q) / calls);
      result_decode_ns.push_back(static_cast<double>(dec_r) / calls);
      bytes_per_query = static_cast<double>(bytes) / n;
    }
  }
  for (const auto& oracle : sample.oracle) hits_per_query += static_cast<double>(oracle.size()) / n;

  // Cost of recording one span, for the tracing-overhead figure.
  SpanLog probe;
  constexpr int kProbeSpans = 20000;
  const int64_t p0 = NowNs();
  for (int i = 0; i < kProbeSpans; ++i) probe.Add("probe", "trace", i, p0, p0);
  const double span_ns = static_cast<double>(NowNs() - p0) / kProbeSpans;

  const auto stats = program->session->Stats();
  std::fprintf(stderr, "ladder: %d rounds over %zu queries (checksum %" PRIu64 ")\n",
               rounds, n, sink);

  metrics->push_back({"setup.fasta_read_s", program->fasta_read_s, "s"});
  metrics->push_back({"setup.fm_build_s", program->fm_build_s, "s"});
  metrics->push_back({"setup.bidir_build_s", program->bidir_build_s, "s"});
  metrics->push_back({"setup.index_bytes", static_cast<double>(bi.MemoryUsage()), "bytes"});
  metrics->push_back({"bwt.extend_ns", Median(extend_ns), "ns"});
  metrics->push_back({"bwt.extend_all_ns", Median(extend_all_ns), "ns"});
  metrics->push_back({"bwt.locate_ns_per_hit", Median(locate_ns), "ns"});
  double default_us = 0;
  for (const Engine& engine : engines) {
    const std::string prefix = std::string("engine.") + engine.name;
    const double us = engine.us.MedianOfMedians();
    if (engine.name == default_name) default_us = us;
    metrics->push_back({prefix + ".query_us", us, "us"});
    metrics->push_back({prefix + ".extend_calls", engine.extend_calls, "count"});
    metrics->push_back({prefix + ".completed_paths", engine.completed_paths, "count"});
  }
  metrics->push_back({"engine.hits_per_query", hits_per_query, "count"});
  metrics->push_back({"batch.dispatch_us", Median(dispatch_us), "us"});
  const double session_rt = session_us.MedianOfMedians();
  const double tcp_rt = tcp_us.MedianOfMedians();
  metrics->push_back({"session.roundtrip_us", session_rt, "us"});
  metrics->push_back({"session.queue_us", Median(queue_us), "us"});
  metrics->push_back({"session.queue_p99_us", Quantile(queue_us, 0.99), "us"});
  metrics->push_back({"session.cache_hits", static_cast<double>(stats.result_cache_hits), "count"});
  metrics->push_back({"wire.query_encode_ns", Median(query_encode_ns), "ns"});
  metrics->push_back({"wire.result_encode_ns", Median(result_encode_ns), "ns"});
  metrics->push_back({"wire.query_decode_ns", Median(query_decode_ns), "ns"});
  metrics->push_back({"wire.result_decode_ns", Median(result_decode_ns), "ns"});
  metrics->push_back({"wire.bytes_per_query", bytes_per_query, "bytes"});
  metrics->push_back({"tcp.roundtrip_us", tcp_rt, "us"});
  metrics->push_back({"trace.span_ns", span_ns, "ns"});
  const bool ladder = default_us <= session_rt && session_rt <= tcp_rt;
  metrics->push_back({"ladder.holds", ladder ? 1.0 : 0.0, "bool"});
  std::fprintf(stderr,
               "ladder %s: engine.%s %.2f us <= session %.2f us <= tcp %.2f us\n",
               ladder ? "holds" : "DOES NOT HOLD", default_name.c_str(),
               default_us, session_rt, tcp_rt);
}

void PrintResult(const Context& ctx, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              ctx.verdict.ok() ? "true" : "false", ctx.attempted.load(),
              ctx.failed.load());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Restricts the calling thread, and the threads it starts later, to the
// last CPU it may use (the first takes most of the device interrupts),
// returns it in `cpus` and the CPUs it may use in `allowed`. The timed
// slices later move the process as a whole (MoveToFastestCpu). On one CPU no hand-off between threads (a served
// query makes four, a batch two per worker) waits for an idle vCPU to wake,
// and no batch waits for a worker whose vCPU the host took: the metrics
// follow the CPU time the program spends per query. On a shared 4-vCPU VM
// whose host took 2-32% of the time, two clients free to use all four
// vCPUs served 2.1-17.4 k queries/s over six serve_hotspot runs; on two
// vCPUs, p90 latency read either about 90 or about 140 us by how the
// threads were placed; on one CPU, one client served 12.6-13.9 k over five
// runs. The benchmark gives up parallel speed-up, which such a host cannot
// measure steadily, for figures that repeat.
bool PinToCpus(cpu_set_t* allowed, cpu_set_t* cpus) {
  if (sched_getaffinity(0, sizeof(*allowed), allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, allowed)) {
      CPU_ZERO(cpus);
      CPU_SET(cpu, cpus);
      return sched_setaffinity(0, sizeof(*cpus), cpus) == 0;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  Context ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--corrupt "
                 "none|drop|spurious|count|order]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (ctx.args.workload == spec.name) ctx.workload = &spec;
  }
  if (ctx.workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", ctx.args.workload.c_str());
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(ctx.args.out_dir, error);
  const std::string tag =
      std::string(ctx.workload->name) + "_seed" + std::to_string(ctx.args.seed);
  const std::string fasta = ctx.args.out_dir + "/genome_" + tag + ".fa";

  // The process, and so every thread the program starts, runs on one CPU.
  if (!PinToCpus(&ctx.allowed, &ctx.cpus)) {
    std::fprintf(stderr, "cannot pin the process to one CPU\n");
    return 1;
  }

  // Inputs first, then the program's set-up: the only set-up of the process.
  ctx.text = MakeGenome(kGenomeSeed, kGenomeBases);
  if (!WriteFasta(fasta, ctx.text)) {
    std::fprintf(stderr, "cannot write %s\n", fasta.c_str());
    return 1;
  }
  ctx.stream.emplace(&ctx.text, ctx.workload->stream, ctx.args.seed, kGenomeSeed);
  ctx.checker.emplace(&ctx.text, ctx.k());

  Program program;
  const bwtk::Status set_up = SetUp(fasta, &ctx, &program);
  std::filesystem::remove(fasta, error);
  if (!set_up.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", set_up.ToString().c_str());
    return 1;
  }
  const Sample sample = MakeSample(&ctx);

  std::vector<Metric> metrics;
  if (ctx.args.trace == 1) {
    RunLadder(&ctx, &program, sample, &metrics);
    const std::string trace = ctx.args.out_dir + "/trace_" + tag + ".json";
    if (!ctx.spans.WriteChromeTrace(trace)) {
      std::fprintf(stderr, "cannot write %s\n", trace.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu spans to %s (%zu more not kept)\n",
                 ctx.spans.size(), trace.c_str(), ctx.spans.dropped());
  } else {
    metrics.push_back({"setup_s", program.setup_s, "s"});
    metrics.push_back({"index_mb", program.index_mb, "MB"});
    // Every workload reports every end-to-end metric.
    RunTimed(&ctx, &program, sample, ctx.args.seconds, &metrics);
  }
  if (program.server) program.server->Stop();
  if (program.session) program.session->Shutdown();
  PrintResult(ctx, metrics);
  return ctx.verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
