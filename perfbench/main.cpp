// End-to-end benchmark of the real GekkoFS stack: an in-process cluster
// of 2 daemons (512 KiB chunks, shipped daemon defaults) driven through
// one fs::Mount by 3 closed-loop client threads.
//
//   perfbench --workload <mdtest_tcp|ior_loopback|randio_uds> --seed N
//             --seconds S --trace <0|1> [--git-sha X] [--source-digest X]
//             [--inject-corruption]
//
// Run from the checkout root: daemon roots go to .bench_work/, spans
// of a traced run to .bench_out/.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics instead, plus the tracing overhead
// measured against the run's own untraced cycles, and writes
// the spans it kept in memory to the out dir at exit.
#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/fileio.h"
#include "common/logging.h"
#include "perfbench.h"

namespace fsys = std::filesystem;
using namespace perfbench;

namespace {

/// Boots measured per run; setup_s is their median (the first boot in
/// a process runs about twice as long as the rest, and each boot waits
/// on a few fdatasyncs of the host disk).
constexpr int kSetupBoots = 41;

const fsys::path kWorkDir = ".bench_work";
const fsys::path kOutDir = ".bench_out";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool inject_corruption = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-corruption") {
      a.inject_corruption = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--git-sha") a.git_sha = v;
      else if (flag == "--source-digest") a.source_digest = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1);
}

/// One booted cluster with its mount. Torn down mount first: the mount
/// must not outlive the cluster's fabrics.
struct Deployment {
  std::unique_ptr<gekko::cluster::Cluster> cluster;
  std::unique_ptr<gekko::fs::Mount> mount;
  fsys::path root;

  ~Deployment() {
    mount.reset();
    cluster.reset();
    std::error_code ec;
    fsys::remove_all(root, ec);
  }
};

/// Boot, mount, and the lazy set-up a first op would otherwise pay:
/// one dial to every daemon and the workload's base directory.
std::unique_ptr<Deployment> boot(const Workload& w, const fsys::path& root) {
  auto d = std::make_unique<Deployment>();
  d->root = root;
  gekko::cluster::ClusterOptions opts;
  opts.nodes = kDaemons;
  opts.root = root;
  opts.transport = w.transport;
  opts.daemon_options.chunk_size = kChunkSize;
  auto c = gekko::cluster::Cluster::start(opts);
  if (!c) {
    std::fprintf(stderr, "cluster start: %s\n",
                 c.status().to_string().c_str());
    return nullptr;
  }
  d->cluster = std::move(*c);
  d->mount = d->cluster->mount();
  if (!d->mount) return nullptr;
  for (const auto& beat : d->mount->client().heartbeats()) {
    if (!beat) {
      std::fprintf(stderr, "a daemon did not answer its first dial\n");
      return nullptr;
    }
  }
  if (auto st = d->mount->mkdir(base_dir(w)); !st.is_ok()) {
    std::fprintf(stderr, "mkdir: %s\n", st.to_string().c_str());
    return nullptr;
  }
  return d;
}

/// Write back the host filesystem's dirty data and commit its pending
/// journal work (a previous run's file deletions, say), so that a later
/// sync - each daemon boot does a few - does not pay for it.
void settle_filesystem(const fsys::path& dir) {
  const fsys::path marker = dir / ".settle";
  if (!gekko::io::write_file_atomic(marker, "settle").is_ok()) return;
  if (const int fd = ::open(marker.c_str(), O_RDONLY); fd >= 0) {
    ::syncfs(fd);  // best effort: it only steadies the boot timings
    ::close(fd);
  }
  std::error_code ec;
  fsys::remove(marker, ec);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string fs_type(const fsys::path& p) {
  struct statfs s {};
  if (::statfs(p.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string provenance_json(const Args& a, const std::string& storage_fs) {
  std::ostringstream o;
  o << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
    << ", \"seconds\": " << number(a.seconds) << ", \"trace\": " << a.trace
    << ", \"git_sha\": " << quoted(a.git_sha)
    << ", \"source_digest\": " << quoted(a.source_digest)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << quoted(cpu_model())
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"storage_fs\": " << quoted(storage_fs)
    << ", \"daemons\": " << kDaemons << ", \"chunk_bytes\": " << kChunkSize
    << ", \"client_threads\": " << kThreads << "}";
  return o.str();
}

/// The workload's end-to-end metrics (setup_s and peak_rss_mib are
/// added by the caller): the CPU time the whole stack spends per op,
/// the median over the timed cycles. Unlike wall-clock rates it does
/// not follow how much CPU time other tenants take from the host.
void add_end_to_end(const Timings& t, Metrics& m) {
  m["write_cpu_us"] = {median(t.write_cpu_us), "us/op"};
  m["read_cpu_us"] = {median(t.read_cpu_us), "us/op"};
}

void write_spans(const fsys::path& file, const std::string& provenance,
                 const std::vector<Span>& spans) {
  std::ofstream out(file);
  out << "{\"provenance\": " << provenance << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "[" << quoted(s.name) << ", " << s.id << ", "
        << s.thread << ", " << s.start_ns << ", " << s.dur_ns << "]";
  }
  out << "\n]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--git-sha X] [--source-digest X] "
                 "[--inject-corruption]\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  gekko::log::set_level(gekko::log::Level::warn);

  const fsys::path work = kWorkDir / w->name;
  std::error_code ec;
  fsys::remove_all(work, ec);
  fsys::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "work dir: %s\n", ec.message().c_str());
    return 1;
  }
  const std::string provenance = provenance_json(args, fs_type(work));
  const std::vector<std::uint8_t> payload = make_payload(args.seed);
  settle_filesystem(kWorkDir);

  // setup_s: the median of kSetupBoots boots; the last one serves the
  // workload.
  std::vector<double> boot_s;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetupBoots; ++i) {
    d.reset();
    const auto t0 = std::chrono::steady_clock::now();
    d = boot(*w, work / ("b" + std::to_string(i)));
    if (!d) return 1;
    boot_s.push_back(seconds_since(t0));
  }

  Metrics metrics;
  PassOptions po;
  po.seed = args.seed;
  po.payload = payload;
  po.corrupt_one_read = args.inject_corruption;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto tally = [&](std::uint64_t a, std::uint64_t f) {
    attempted += a;
    failed += f;
  };

  if (args.trace == 0) {
    po.seconds = args.seconds;
    const PassResult p = run_pass(*w, *d->mount, po);
    tally(p.attempted, p.failed);
    add_end_to_end(p.timings[kUntraced], metrics);
    d.reset();
    metrics["setup_s"] = {median(boot_s), "s"};
    metrics["peak_rss_mib"] = {p.peak_rss_mib, "MiB"};
  } else {
    // Timed cycles alternate untraced and traced; the difference
    // between the two groups is the tracing overhead.
    po.seconds = args.seconds * 0.7;
    po.trace = true;
    const StackSample before = sample_stack(*d->cluster);
    PassResult pass = run_pass(*w, *d->mount, po);
    const StackSample after = sample_stack(*d->cluster);
    tally(pass.attempted, pass.failed);
    d.reset();
    add_stack_metrics(*w, before, after, pass, metrics);

    Metrics untraced_e2e, traced_e2e;
    add_end_to_end(pass.timings[kUntraced], untraced_e2e);
    add_end_to_end(pass.timings[kTraced], traced_e2e);
    for (const auto& [name, m] : untraced_e2e) {
      // Positive = tracing made the metric worse (all are lower-better).
      const double worse = traced_e2e[name].value - m.value;
      metrics["trace.overhead." + name] = {
          m.value > 0 ? worse / m.value : 0.0, "ratio"};
    }
    // Wall-clock rates through fs::Mount, in the untraced cycles.
    metrics["client.write_ops_s"] = {
        median(pass.timings[kUntraced].write_rates), "1/s"};
    metrics["client.read_ops_s"] = {
        median(pass.timings[kUntraced].read_rates), "1/s"};
    std::vector<Span>& spans = pass.spans;
    const fsys::path drives = work / "drives";
    const DriveCount r =
        drive_rpc(*w, drives / "rpc", args.seconds * 0.1, metrics, spans);
    tally(r.attempted, r.failed);
    const DriveCount k = drive_kv(*w, drives / "kv", args.seed,
                                  args.seconds * 0.1, metrics, spans);
    tally(k.attempted, k.failed);
    const DriveCount s = drive_storage(*w, drives / "storage", args.seed,
                                       payload, args.seconds * 0.1, metrics,
                                       spans);
    tally(s.attempted, s.failed);
    metrics["trace.span_mib"] = {
        double(spans.capacity() * sizeof(Span)) / (1024.0 * 1024.0), "MiB"};

    fsys::create_directories(kOutDir, ec);
    write_spans(kOutDir / (std::string(w->name) + "-seed" +
                           std::to_string(args.seed) + ".spans.json"),
                provenance, spans);
  }
  fsys::remove_all(work, ec);
  settle_filesystem(kWorkDir);

  std::printf("{\"provenance\": %s}\n", provenance.c_str());
  std::ostringstream o;
  o << "{\"correct\": " << (failed == 0 ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ", ") << quoted(name) << ": {\"value\": "
      << number(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
