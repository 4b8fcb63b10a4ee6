// The three workloads, each run as repeated cycles of barrier-separated
// phases by kThreads closed-loop client threads sharing one fs::Mount.
//
// Every cycle (for ior_loopback, every generation of cycles) works on
// fresh names, so the kv merge chain a read folds stays bounded by the
// workload's fixed length. Payload bytes are precomputed; read buffers
// are checked against them only after the read phase's clock has
// stopped. Each cycle writes other bytes than the one before.
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <functional>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "fs/file_map.h"
#include "perfbench.h"

namespace perfbench {

using gekko::cluster::ClusterTransport;

namespace {

// mdtest_tcp: single-op create/stat/remove of empty files in one shared
// directory over TCP. Bound by the rpc round trip; kv put/get/delete on
// distinct keys is a small share.
// ior_loopback: file-per-process, 1 MiB sequential transfers (two
// chunks each) over the in-process fabric; bound by chunking, bulk
// copy, the daemon io pool and the chunk store. 48 files x 8 MiB per
// cycle is 384 chunks per daemon, more than its 256-entry fd cache.
// A generation of files is created, then overwritten by 7 timed
// cycles: fresh page-cache pages cost what the host's memory happens
// to cost at the time (up to 3x apart between runs), reused ones do
// not.
// Its last read folds 8 x 8 = 64 size-update operands.
// randio_uds: 8 KiB writes then reads at shuffled disjoint strided
// offsets of one shared file over Unix sockets. Each write adds one
// size-update merge operand to the file's key; each read's stat folds
// all of them.
constexpr Workload kWorkloads[] = {
    {"mdtest_tcp", ClusterTransport::tcp, 0, 6000, 0, false, 1},
    {"ior_loopback", ClusterTransport::loopback, 1024 * 1024, 48, 8, false,
     8},
    {"randio_uds", ClusterTransport::uds, 8 * 1024, 1, 3072, true, 1},
};

/// Timed cycles after which the peak resident set is taken. The kv
/// memtables grow with every cycle until they flush, so a peak taken
/// at the end of the run would grow with how many cycles the host let
/// it finish.
constexpr std::uint32_t kPeakRssCycles = 4;

/// Each file's bytes start at its own seeded offset into the payload,
/// so no two files of a cycle hold the same content.
constexpr std::uint64_t kShiftSpan = 64 * 1024;

std::uint64_t file_bytes(const Workload& w) {
  return std::uint64_t{w.transfer_bytes} * w.writes_per_file;
}

/// CPU seconds every thread of the process (client, daemons, their
/// pools) has run so far. The kernel keeps time the hypervisor stole
/// from a vCPU out of it, so it does not grow when other tenants take
/// CPU time from the host.
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) / 1e9;
}

/// Peak resident set of the process so far.
double peak_rss_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// What one phase of a cycle took: wall seconds, and the CPU seconds
/// the whole process spent meanwhile.
struct Phase {
  double wall_s;
  double cpu_s;
};

/// Runs one function on every member thread at once; the caller blocks
/// until all return. Keeps the same threads across phases so per-thread
/// state in the client stack is set up once, in the warm-up cycle.
class Team {
 public:
  explicit Team(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { loop_(i); });
    }
  }
  ~Team() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Runs `fn` on every member; measures from the release of the team
  /// until its last member ended.
  Phase run(const std::function<void(unsigned)>& fn) {
    std::unique_lock lock(mutex_);
    fn_ = &fn;
    pending_ = static_cast<unsigned>(threads_.size());
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = gekko::metrics::now_ns();
    ++generation_;
    start_cv_.notify_all();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    return Phase{static_cast<double>(end_ns_ - t0) / 1e9, end_cpu_s_ - cpu0};
  }

 private:
  void loop_(unsigned i) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(unsigned)>* fn = nullptr;
      {
        std::unique_lock lock(mutex_);
        start_cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        fn = fn_;
      }
      (*fn)(i);
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) {
        end_ns_ = gekko::metrics::now_ns();
        end_cpu_s_ = process_cpu_s();
        done_cv_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* fn_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  std::uint64_t end_ns_ = 0;
  double end_cpu_s_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: the loops use the above
};

/// A stable per-seed tag, so each seed places its names on different
/// daemons.
std::string name_salt(std::uint64_t seed) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    gekko::SplitMix64(seed).next()));
  return buf;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t cycle,
                          std::uint64_t stream) {
  return gekko::SplitMix64(seed ^ (cycle << 20) ^ (stream << 44)).next();
}

/// Packed metadata the daemon stores per created file.
std::uint64_t metadata_value_bytes() {
  return gekko::proto::Metadata{}.encode().size();
}
/// [op u8][size u64][mtime i64]: one size-update merge operand.
constexpr std::uint64_t kSizeOperandBytes = 17;

class Runner {
 public:
  Runner(const Workload& w, gekko::fs::Mount& mount, const PassOptions& o)
      : w_(w), mount_(mount), o_(o), salt_(name_salt(o.seed)) {
    logs_.resize(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) logs_[t].thread = t;
  }

  PassResult run() {
    double elapsed = 0;
    std::uint32_t timed = 0;
    // Cycle 0 is a warm-up (thread-local buffers, first-touch pages,
    // connections) and does not count towards the run's seconds.
    for (std::uint32_t cycle = 0;; ++cycle) {
      const bool untimed = cycle == 0 || (w_.generation_cycles > 1 &&
                                          starts_generation_(cycle));
      const int group = untimed                    ? kUntimed
                        : o_.trace && timed % 2 == 1 ? kTraced
                                                     : kUntraced;
      if (!untimed) ++timed;
      for (auto& log : logs_) log.group = group;
      const double t = w_.transfer_bytes == 0 ? metadata_cycle_(cycle)
                                              : data_cycle_(cycle);
      if (timed <= kPeakRssCycles) peak_rss_mib_ = peak_rss_mib();
      if (cycle == 0) continue;
      elapsed += t;
      if (elapsed >= o_.seconds && timed >= (o_.trace ? 2u : 1u)) break;
    }
    return collect_();
  }

 private:
  /// Whether `cycle` creates a generation's files, or removes them.
  bool starts_generation_(std::uint32_t cycle) const {
    return cycle % w_.generation_cycles == 0;
  }
  bool ends_generation_(std::uint32_t cycle) const {
    return (cycle + 1) % w_.generation_cycles == 0;
  }

  /// One mdtest iteration; returns the seconds of its timed phases.
  double metadata_cycle_(std::uint32_t cycle) {
    const std::uint32_t per_thread = w_.files_per_cycle / kThreads;
    std::vector<std::vector<std::string>> names(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
      names[t].reserve(per_thread);
      for (std::uint32_t i = 0; i < per_thread; ++i) {
        names[t].push_back(base_dir(w_) + "/" + salt_ + "-" +
                           std::to_string(cycle) + "-" + std::to_string(t) +
                           "-" + std::to_string(i));
      }
    }
    const std::uint64_t md_bytes = metadata_value_bytes();
    const double n = double(per_thread) * kThreads;

    const Phase create = team_.run([&](unsigned t) {
      ThreadLog& log = logs_[t];
      for (const auto& p : names[t]) {
        log.timed(Op::create, [&] {
          auto fd = mount_.open(p, gekko::fs::create | gekko::fs::wr_only |
                                       gekko::fs::excl);
          return fd.is_ok() && mount_.close(*fd).is_ok();
        });
        log.kv_user_bytes += p.size() + md_bytes;
      }
    });
    const Phase stat = team_.run([&](unsigned t) {
      ThreadLog& log = logs_[t];
      for (const auto& p : names[t]) {
        log.timed(Op::stat, [&] {
          auto md = mount_.stat(p);
          return md.is_ok() && md->size == 0 &&
                 md->type == gekko::proto::FileType::regular;
        });
      }
    });
    const Phase remove = team_.run([&](unsigned t) {
      ThreadLog& log = logs_[t];
      for (const auto& p : names[t]) {
        log.timed(Op::remove, [&] { return mount_.unlink(p).is_ok(); });
        log.kv_user_bytes += p.size();
      }
    });
    record_(n, create, stat);
    return create.wall_s + stat.wall_s + remove.wall_s;
  }

  struct Transfer {
    std::uint64_t offset;       // in the file
    std::uint64_t payload_off;  // where its bytes come from
  };
  struct FilePlan {
    std::string path;
    std::vector<Transfer> writes;
    std::vector<Transfer> reads;
  };

  /// Per thread, the files it touches and its transfers in issue order.
  std::vector<std::vector<FilePlan>> plan_(std::uint32_t cycle) const {
    const std::uint64_t x = w_.transfer_bytes;
    std::vector<std::vector<FilePlan>> plans(kThreads);
    gekko::Xoshiro256 shifts(stream_seed(o_.seed, cycle, 0));
    auto shift = [&] { return shifts.below(kShiftSpan / 8) * 8; };
    const std::string stem = base_dir(w_) + "/" + salt_ + "-" +
                             std::to_string(cycle / w_.generation_cycles);
    if (!w_.shuffled) {
      const std::uint32_t files = w_.files_per_cycle / kThreads;
      for (unsigned t = 0; t < kThreads; ++t) {
        for (std::uint32_t k = 0; k < files; ++k) {
          FilePlan fp;
          fp.path = stem + "-" + std::to_string(t) + "-" + std::to_string(k);
          const std::uint64_t s = shift();
          for (std::uint32_t i = 0; i < w_.writes_per_file; ++i) {
            fp.writes.push_back({i * x, s + i * x});
          }
          fp.reads = fp.writes;
          plans[t].push_back(std::move(fp));
        }
      }
      return plans;
    }
    // One shared file: thread t owns slots t, t + kThreads, ... and
    // visits them in one seeded order for writing, another for reading.
    const std::uint64_t s = shift();
    const std::uint32_t per_thread = w_.writes_per_file / kThreads;
    for (unsigned t = 0; t < kThreads; ++t) {
      FilePlan fp;
      fp.path = stem;
      for (std::uint32_t j = 0; j < per_thread; ++j) {
        const std::uint64_t slot = t + std::uint64_t{kThreads} * j;
        fp.writes.push_back({slot * x, s + slot * x});
      }
      fp.reads = fp.writes;
      shuffle(fp.writes, stream_seed(o_.seed, cycle, 1 + 2 * t));
      shuffle(fp.reads, stream_seed(o_.seed, cycle, 2 + 2 * t));
      plans[t].push_back(std::move(fp));
    }
    return plans;
  }

  /// One IOR iteration: write phase, read phase, then (untimed) the
  /// byte check and, at the end of a generation, the removal of its
  /// files. Returns the seconds of the write and read phases.
  double data_cycle_(std::uint32_t cycle) {
    const auto plans = plan_(cycle);
    const std::uint64_t x = w_.transfer_bytes;
    std::uint64_t reads_per_thread = 0;
    for (const auto& fp : plans[0]) reads_per_thread += fp.reads.size();
    if (buffers_.empty()) {
      buffers_.assign(kThreads,
                      std::vector<std::uint8_t>(reads_per_thread * x));
    }
    const std::span<const std::uint8_t> payload = o_.payload;
    const bool create = !w_.shuffled && starts_generation_(cycle);

    if (w_.shuffled) {
      // The shared file exists before any thread writes to it.
      logs_[0].timed(Op::create, [&] {
        auto fd = mount_.open(plans[0][0].path,
                              gekko::fs::create | gekko::fs::wr_only);
        return fd.is_ok() && mount_.close(*fd).is_ok();
      });
      logs_[0].kv_user_bytes +=
          plans[0][0].path.size() + metadata_value_bytes();
    }
    const Phase write = team_.run([&](unsigned t) {
      ThreadLog& log = logs_[t];
      for (const auto& fp : plans[t]) {
        int fd = -1;
        log.timed(create ? Op::create : Op::stat, [&] {
          auto r = mount_.open(fp.path, create ? gekko::fs::create |
                                                     gekko::fs::wr_only
                                               : gekko::fs::wr_only);
          if (r.is_ok()) fd = *r;
          return r.is_ok();
        });
        if (create) {
          log.kv_user_bytes += fp.path.size() + metadata_value_bytes();
        }
        if (fd < 0) continue;
        for (const auto& tr : fp.writes) {
          log.timed(Op::write, [&] {
            auto n = mount_.pwrite(fd, payload.subspan(tr.payload_off, x),
                                   tr.offset);
            return n.is_ok() && *n == x;
          });
          log.bytes_written += x;
          log.kv_user_bytes += fp.path.size() + kSizeOperandBytes;
        }
        if (!mount_.close(fd).is_ok()) ++log.failed;
      }
    });
    const Phase read = team_.run([&](unsigned t) {
      ThreadLog& log = logs_[t];
      std::uint8_t* buf = buffers_[t].data();
      std::uint64_t j = 0;
      for (const auto& fp : plans[t]) {
        int fd = -1;
        log.timed(Op::stat, [&] {
          auto r = mount_.open(fp.path, gekko::fs::rd_only);
          if (r.is_ok()) fd = *r;
          return r.is_ok();
        });
        if (fd < 0) {
          j += fp.reads.size();
          continue;
        }
        for (const auto& tr : fp.reads) {
          log.timed(Op::read, [&] {
            auto n = mount_.pread(fd, {buf + j * x, x}, tr.offset);
            return n.is_ok() && *n == x;
          });
          ++j;
        }
        if (!mount_.close(fd).is_ok()) ++log.failed;
      }
    });

    // Clock stopped: check every byte read.
    if (o_.corrupt_one_read && logs_[0].group != kUntimed && !corrupted_) {
      buffers_[0][0] ^= 0xff;
      corrupted_ = true;
    }
    for (unsigned t = 0; t < kThreads; ++t) {
      std::uint64_t j = 0;
      for (const auto& fp : plans[t]) {
        for (const auto& tr : fp.reads) {
          if (std::memcmp(buffers_[t].data() + j * x,
                          payload.data() + tr.payload_off, x) != 0) {
            ++logs_[t].failed;
          }
          ++j;
        }
      }
    }

    if (ends_generation_(cycle)) {
      team_.run([&](unsigned t) {
        ThreadLog& log = logs_[t];
        if (w_.shuffled && t != 0) return;
        for (const auto& fp : plans[t]) {
          log.timed(Op::remove,
                    [&] { return mount_.unlink(fp.path).is_ok(); });
          log.kv_user_bytes += fp.path.size();
        }
      });
    }

    const double n = double(reads_per_thread) * kThreads;
    record_(n, write, read);
    return write.wall_s + read.wall_s;
  }

  /// Keeps a timed cycle's write- and read-phase figures for `n` ops
  /// per phase.
  void record_(double n, const Phase& write, const Phase& read) {
    const int group = logs_[0].group;
    if (group == kUntimed) return;
    Timings& t = timings_[group];
    t.write_rates.push_back(n / write.wall_s);
    t.read_rates.push_back(n / read.wall_s);
    t.write_cpu_us.push_back(write.cpu_s * 1e6 / n);
    t.read_cpu_us.push_back(read.cpu_s * 1e6 / n);
  }

  PassResult collect_() {
    PassResult r;
    r.peak_rss_mib = peak_rss_mib_;
    r.timings = std::move(timings_);
    for (auto& log : logs_) {
      for (std::size_t i = 0; i < kOps; ++i) {
        for (std::size_t g = 0; g < 2; ++g) {
          auto& into = r.timings[g].latency_ns[i];
          into.insert(into.end(), log.latency_ns[g][i].begin(),
                      log.latency_ns[g][i].end());
        }
        r.count[i] += log.count[i];
      }
      r.attempted += log.attempted;
      r.failed += log.failed;
      r.bytes_written += log.bytes_written;
      r.kv_user_bytes += log.kv_user_bytes;
      r.spans.insert(r.spans.end(), log.spans.begin(), log.spans.end());
    }
    return r;
  }

  const Workload& w_;
  gekko::fs::Mount& mount_;
  const PassOptions& o_;
  const std::string salt_;
  std::vector<ThreadLog> logs_;
  std::vector<std::vector<std::uint8_t>> buffers_;
  std::array<Timings, 2> timings_;
  bool corrupted_ = false;
  double peak_rss_mib_ = 0;
  Team team_{kThreads};  // last: joined before the logs it writes die
};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string base_dir(const Workload& w) {
  return w.transfer_bytes == 0 ? "/md" : w.shuffled ? "/randio" : "/ior";
}

std::vector<std::uint8_t> make_payload(std::uint64_t seed) {
  std::uint64_t largest = 0;
  for (const auto& w : kWorkloads) largest = std::max(largest, file_bytes(w));
  std::vector<std::uint8_t> out(largest + kShiftSpan);
  gekko::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
    const std::uint64_t v = rng();
    std::memcpy(out.data() + i, &v, 8);
  }
  return out;
}

PassResult run_pass(const Workload& w, gekko::fs::Mount& mount,
                    const PassOptions& options) {
  return Runner(w, mount, options).run();
}

double percentile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * double(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return double(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench
