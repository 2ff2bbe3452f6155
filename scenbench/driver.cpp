// Scenario benchmark driver: one process runs one workload in one mode.
//
//   scenbench_driver --scn FILE [--seed N] [--seconds S] [--replicas R]
//                    [--setup-per-run X] [--trace-flows F] [--max-flows F]
//                    [--trace 0|1] [--spans FILE]
//
// --trace 0 measures the end-to-end metrics with tracing off:
//   setup_s        median of buildFatTree calls, each into a fresh Testbed,
//                  X per scenario run, made between the scenario runs
//   scenario_s     runScenario wall time, taken at each of the R seeds
//                  seed..seed+R-1 (median over that seed's repetitions;
//                  the seeds are cycled until S seconds have passed), then
//                  averaged over the R seeds
//   peak_rss_mb    VmHWM of this process
//   sim_fct_*_us   ScenarioResult::fct percentiles, averaged over the R seeds
// One seed's FCT tail is a handful of flows, so a single seed's p99 moves by
// tens of percent from seed to seed; the average over R seeds is what makes
// two runs at different --seed comparable. Averages over seeds are 10%
// trimmed means (trimmedMean).
//
// --trace 1 gives the per-layer numbers. It runs the workload's config at
// --seed, cut to F flows so the flight recorder holds every record, once
// untraced and once traced per repetition. Counts come from the recorder
// and the ScenarioResult of that run; each layer's hot operation is timed
// in isolation, with bench_core's definition where bench_core has one.
//
// Both modes check the outputs (every flow finishes, repetitions at one
// seed are bit-identical, the sketch bound holds, the recorder agrees with
// the result) and print, as the last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Spans around the driver's own calls into the simulator are kept in memory
// and written to --spans at exit.
//
// GCC pairs the replaced operator delete with the *default* operator new
// and warns about free(); both are replaced here, so the warning is
// spurious.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/apps/task_ids.hpp"
#include "src/apps/tpp_tcp.hpp"
#include "src/core/hook.hpp"
#include "src/core/program.hpp"
#include "src/host/prober.hpp"
#include "src/host/topology.hpp"
#include "src/monitor/sketch.hpp"
#include "src/net/ethernet.hpp"
#include "src/net/ipv4.hpp"
#include "src/net/link.hpp"
#include "src/net/packet.hpp"
#include "src/sim/event_queue.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/trace.hpp"
#include "src/tcpu/tcpu.hpp"
#include "src/workload/scenario.hpp"

#include <sys/resource.h>

// ------------------------------------------------------------------------
// Heap instrumentation, counted as bench_core counts it.
// ------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same malloc as the replaced delete frees into.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace tpp;
using workload::ScenarioConfig;
using workload::ScenarioResult;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_epoch = Clock::now();

double nowS() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Mean of the values left after dropping the lowest and the highest tenth
// (rounded down). One seed's FCT tail can hold a flow that waited out a
// retransmission timeout, and one run can land on a stalled host; neither
// should move a figure averaged over many seeds.
double trimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 10;
  double s = 0;
  for (std::size_t i = k; i < v.size() - k; ++i) s += v[i];
  return s / static_cast<double>(v.size() - 2 * k);
}

// ------------------------------------------------------------------------
// Spans: name, start, end and parent of every driver call into a layer.
// ------------------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;
  double start = 0, end = 0;
};

class SpanLog {
 public:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), parent, nowS(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  double close(int id) {
    spans_[static_cast<std::size_t>(id)].end = nowS();
    stack_.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                    i, s.name.c_str(), s.parent, s.start, s.end,
                    i + 1 < spans_.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

  // Per span name: calls, total time, and self time (duration minus the
  // part covered by child spans).
  void printSelfTimes() const {
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    struct Row {
      std::size_t calls = 0;
      double total = 0, self = 0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& r = rows[spans_[i].name];
      ++r.calls;
      r.total += spans_[i].end - spans_[i].start;
      r.self += spans_[i].end - spans_[i].start - childTime[i];
    }
    std::printf("spans (name, calls, total s, self s):\n");
    for (const auto& [name, r] : rows) {
      std::printf("  %-28s %6zu %10.4f %10.4f\n", name.c_str(), r.calls,
                  r.total, r.self);
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog g_spans;

// Times `fn()` under a span; returns seconds.
template <typename F>
double timed(const char* name, F&& fn) {
  const int id = g_spans.open(name);
  fn();
  return g_spans.close(id);
}

// ------------------------------------------------------------------------
// Arguments
// ------------------------------------------------------------------------

struct Args {
  std::string scn;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  std::size_t replicas = 1;
  double setupPerRun = 1;
  std::size_t traceFlows = 0;  // 0 = the config's own flow cap
  std::size_t maxFlows = 0;    // 0 = the config's own flow cap
  int trace = 0;
  std::string spans;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "scenbench_driver: %s needs a value\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    const auto num = std::strtoull(v, &end, 10);
    const bool isNum = end != v && *end == '\0';
    if (k == "--scn") {
      a.scn = v;
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--seconds" || k == "--setup-per-run") {
      double& out = k == "--seconds" ? a.seconds : a.setupPerRun;
      out = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(out >= 0)) return false;
    } else if (!isNum) {
      std::fprintf(stderr, "scenbench_driver: %s wants a whole number\n",
                   k.c_str());
      return false;
    } else if (k == "--seed") {
      a.seed = num;
    } else if (k == "--replicas") {
      a.replicas = std::max<std::size_t>(1, num);
    } else if (k == "--trace-flows") {
      a.traceFlows = num;
    } else if (k == "--max-flows") {
      a.maxFlows = num;
    } else if (k == "--trace") {
      if (num > 1) return false;
      a.trace = static_cast<int>(num);
    } else {
      std::fprintf(stderr, "scenbench_driver: unknown option %s\n", k.c_str());
      return false;
    }
  }
  return !a.scn.empty();
}

// ------------------------------------------------------------------------
// Output
// ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) failures.push_back(what);
  }

  void print() const {
    std::printf("metrics:\n");
    for (const Metric& m : metrics) {
      std::printf("  %-26s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("flows attempted=%llu failed=%llu (%.4f%%)\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                attempted == 0 ? 0.0
                               : 100.0 * static_cast<double>(failed) /
                                     static_cast<double>(attempted));
    std::string json = "{\"correct\": ";
    json += failures.empty() && failed == 0 && attempted > 0 ? "true"
                                                             : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
      json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
      if (i + 1 < metrics.size()) json += ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

// ------------------------------------------------------------------------
// Topology build: the same switch and link parameters runScenario derives
// from the config.
// ------------------------------------------------------------------------

asic::SwitchConfig switchConfigOf(const ScenarioConfig& c) {
  asic::SwitchConfig cfg;
  cfg.bufferPerQueueBytes = c.bufferKb * 1024;
  if (c.ecnThresholdKb != 0) cfg.ecnThresholdBytes = c.ecnThresholdKb * 1024;
  cfg.hookStride = c.sketchStride;
  return cfg;
}

host::LinkParams linkParamsOf(const ScenarioConfig& c) {
  host::LinkParams lp;
  lp.rateBps = static_cast<std::uint64_t>(c.linkGbps * 1e9);
  lp.delay = sim::Time::seconds(c.linkDelayUs * 1e-6);
  return lp;
}

// buildFatTree for the workload into a fresh Testbed; returns seconds.
double timeBuild(const ScenarioConfig& c, host::Testbed& tb) {
  return timed("buildFatTree", [&] {
    host::buildFatTree(tb, c.k, linkParamsOf(c), switchConfigOf(c));
  });
}

// Peak resident set of this process (Linux reports ru_maxrss in KiB; it is
// the VmHWM of /proc/self/status).
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The number of TppTcpControllers (one ReliableProber each) on the busiest
// sender host: the echo fan-out every echo on that host pays.
std::size_t probersPerSender(const ScenarioConfig& c,
                             const std::vector<workload::FlowPlan>& plans) {
  if (!c.tppController) return 0;
  std::map<std::size_t, std::size_t> perHost;
  std::size_t most = 0;
  for (std::size_t f = 0; f < plans.size() && f < c.maxControllers; ++f) {
    most = std::max(most, ++perHost[plans[f].src]);
  }
  return most;
}

// ========================================================================
// --trace 0: end-to-end metrics
// ========================================================================

void runEndToEnd(const Args& args, const ScenarioConfig& base, Report& rep) {
  const double deadline = nowS() + args.seconds;

  // Setup: buildFatTree into fresh testbeds, destroyed outside the timed
  // span. The builds are spread between the scenario runs rather than
  // made back to back, so that their median does not hinge on one stretch
  // of host load: before run g, builds until max(1, floor(X*(g+1))) are
  // done.
  std::vector<double> setups;
  std::size_t switches = 0, hosts = 0;
  const auto buildUpTo = [&](std::size_t run) {
    const auto due = std::max<std::size_t>(
        1, static_cast<std::size_t>(args.setupPerRun *
                                    static_cast<double>(run + 1)));
    while (setups.size() < due) {
      host::Testbed tb;
      setups.push_back(timeBuild(base, tb));
      switches = tb.switchCount();
      hosts = tb.hostCount();
    }
  };

  std::vector<ScenarioConfig> seeds(args.replicas, base);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i].seed = base.seed + i;

  struct PerSeed {
    std::vector<double> times;
    ScenarioResult first;
    std::string summary;
  };
  std::vector<PerSeed> per(seeds.size());

  std::uint64_t unfinished = 0;
  bool deterministic = true;
  bool sketchOk = true;
  bool topologyAgrees = true;
  for (std::size_t run = 0;; ++run) {
    const std::size_t i = run % seeds.size();
    // Every seed once, the first seed twice (the determinism check), then
    // keep cycling until the time budget is spent.
    if (run >= seeds.size() + 1 && nowS() >= deadline) break;
    buildUpTo(run);
    workload::ScenarioRun out;
    const double t =
        timed("runScenario", [&] { out = workload::runScenario(seeds[i]); });
    const ScenarioResult& r = out.result;
    PerSeed& p = per[i];
    p.times.push_back(t);
    rep.attempted += r.flows;
    unfinished += r.flows - std::min(r.flows, r.finished);
    if (seeds[i].monitorSketch &&
        (!r.monitorBoundOk || r.monitorUnderestimates != 0)) {
      sketchOk = false;
    }
    std::printf("run seed=%llu wall=%.4fs events=%llu flows=%zu finished=%zu "
                "failed=%zu fct_p50=%.3fus fct_p99=%.3fus\n",
                static_cast<unsigned long long>(seeds[i].seed), t,
                static_cast<unsigned long long>(r.eventsExecuted), r.flows,
                r.finished, r.failed, r.fct.p50Us, r.fct.p99Us);
    std::string summary = r.summaryText(seeds[i]);
    if (p.times.size() == 1) {
      if (run == 0) {
        std::printf("--- summary at seed %llu ---\n%s---\n",
                    static_cast<unsigned long long>(seeds[i].seed),
                    summary.c_str());
      }
      p.first = r;
      p.summary = std::move(summary);
    } else if (summary != p.summary || r.flowDigest != p.first.flowDigest ||
               r.queueDigest != p.first.queueDigest) {
      // A repetition that differs is non-determinism: all its flows count
      // as failed.
      deterministic = false;
      rep.failed += r.flows;
    }
    topologyAgrees =
        topologyAgrees && r.switches == switches && r.hosts == hosts;
  }
  rep.failed += unfinished;

  std::vector<double> seedTimes, p50, p99;
  std::uint64_t flows = 0;
  for (const PerSeed& p : per) {
    seedTimes.push_back(median(p.times));
    p50.push_back(p.first.fct.p50Us);
    p99.push_back(p.first.fct.p99Us);
    flows += p.first.flows;
  }
  std::printf("over %zu seeds (%llu flows): trimmed-mean scenario %.4fs, fct "
              "p50 %.3fus, fct p99 %.3fus\n",
              per.size(), static_cast<unsigned long long>(flows),
              trimmedMean(seedTimes), trimmedMean(p50), trimmedMean(p99));

  rep.check(unfinished == 0, "every flow finishes");
  rep.check(deterministic, "repetitions at one seed are bit-identical");
  if (base.monitorSketch) {
    rep.check(sketchOk, "sketch bound=ok, 0 underestimates");
  }
  rep.check(topologyAgrees, "setup builds the topology runScenario builds");

  rep.add("setup_s", median(setups), "s");
  rep.add("scenario_s", trimmedMean(seedTimes), "s");
  rep.add("peak_rss_mb", peakRssMb(), "MB");
  rep.add("sim_fct_p50_us", trimmedMean(p50), "us");
  rep.add("sim_fct_p99_us", trimmedMean(p99), "us");
}


// ========================================================================
// --trace 1: per-layer metrics
// ========================================================================

// bench_core's `measure`: runs `body(ops)` once with a tenth of the ops as
// warm-up, then times it. Returns ns per op.
template <typename F>
double nsPerOp(const char* name, std::uint64_t ops, F&& body) {
  const int id = g_spans.open(name);
  body(ops / 10 + 1);
  const auto t0 = Clock::now();
  body(ops);
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  g_spans.close(id);
  return ns / static_cast<double>(ops);
}

// As bench_core's event_schedule_fire.
double eventScheduleFireNs() {
  return nsPerOp("time.sim.event", 2'000'000, [](std::uint64_t ops) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    constexpr std::uint64_t kBatch = 64;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        q.push(sim::Time::ns(static_cast<std::int64_t>(done + i)),
               [&fired] { ++fired; });
      }
      while (auto f = q.tryPop()) f->fn();
      done += n;
    }
    if (fired != ops) std::abort();
  });
}

class SinkNode final : public net::Node {
 public:
  using net::Node::Node;
  std::uint64_t got = 0;
  void receive(net::PacketPtr, std::size_t) override { ++got; }
};

// As bench_core's link_transit_1500B.
double linkTransitNs() {
  return nsPerOp("time.net.link_transit", 500'000, [](std::uint64_t ops) {
    sim::Simulator sim;
    SinkNode sink("sink");
    net::Channel ch(sim, 100'000'000'000ULL, sim::Time::ns(100));
    ch.attachReceiver(&sink, 0);
    constexpr std::uint64_t kBatch = 256;
    for (std::uint64_t done = 0; done < ops;) {
      const std::uint64_t n = std::min(kBatch, ops - done);
      for (std::uint64_t i = 0; i < n; ++i) {
        ch.transmit(net::Packet::make(1500, 0x11));
      }
      sim.run();
      done += n;
    }
    if (sink.got != ops) std::abort();
  });
}

// One addMultipath per /32 into a fresh table grown to `routes` entries,
// the way buildFatTree fills a core switch's table.
double l3InstallNs(std::size_t routes, std::size_t ports) {
  const std::uint64_t tables =
      std::max<std::uint64_t>(3, 2'000'000 / (routes * routes + 1));
  const std::uint64_t ops = tables * routes;
  return nsPerOp("time.asic.l3_install", ops, [&](std::uint64_t n) {
    std::uint64_t installed = 0;
    while (installed < n) {
      asic::L3LpmTable t;
      for (std::size_t i = 0; i < routes; ++i) {
        t.addMultipath(net::Ipv4Address::forHost(static_cast<std::uint32_t>(i)),
                       32, {i % ports});
      }
      if (t.size() != routes) std::abort();
      installed += routes;
    }
  });
}

// l3().match() on every built switch's table, for every host IP.
double l3MatchNs(host::Testbed& tb) {
  std::vector<net::Ipv4Address> ips;
  for (std::size_t h = 0; h < tb.hostCount(); ++h) ips.push_back(tb.host(h).ip());
  const std::uint64_t perPass = tb.switchCount() * ips.size();
  const std::uint64_t passes = std::max<std::uint64_t>(1, 1'000'000 / perPass);
  std::size_t sink = 0;
  const double ns = nsPerOp("time.asic.l3_match", passes * perPass,
                            [&](std::uint64_t n) {
    for (std::uint64_t done = 0; done < n; done += perPass) {
      for (std::size_t s = 0; s < tb.switchCount(); ++s) {
        const asic::L3LpmTable& t = tb.sw(s).l3();
        for (std::size_t h = 0; h < ips.size(); ++h) {
          const auto m = t.match(ips[h], h * 0x9e3779b97f4a7c15ull);
          sink += m ? m->outPort : 1;
        }
      }
    }
  });
  if (sink == 0) std::abort();
  return ns;
}

// bench_fig3_pipeline's StageFullSwitch frame: a 5-push TPP over UDP.
net::PacketPtr makeTppPacket() {
  core::ProgramBuilder b;
  b.push(core::addr::SwitchId);
  b.push(core::addr::QueueBytes);
  b.push(core::addr::InputPort);
  b.push(core::addr::MatchedEntryId);
  b.push(core::addr::TxUtilization);
  b.reserve(40);
  auto program = *b.build();
  std::vector<std::uint8_t> payload(net::kIpv4HeaderSize +
                                    net::kUdpHeaderSize);
  net::Ipv4Header ip;
  ip.totalLength = static_cast<std::uint16_t>(payload.size());
  ip.src = net::Ipv4Address::forHost(1);
  ip.dst = net::Ipv4Address::forHost(2);
  ip.write(payload);
  net::UdpHeader udp{7, 7, net::kUdpHeaderSize};
  udp.write(std::span(payload).subspan(net::kIpv4HeaderSize));
  return core::buildTppFrame(net::MacAddress::fromIndex(2),
                             net::MacAddress::fromIndex(1), program,
                             net::kEtherTypeIpv4, payload);
}

// As StageFullSwitch: Switch::receive through TX for one packet on a
// one-switch chain, draining the simulator after each.
double switchForwardNs() {
  host::Testbed tb;
  buildChain(tb, 1, host::LinkParams{100'000'000'000ULL, sim::Time::ns(1)});
  auto packet = makeTppPacket();
  net::EthernetHeader eth{tb.host(1).mac(), tb.host(0).mac(),
                          net::kEtherTypeTpp};
  eth.write(packet->span());
  return nsPerOp("time.asic.switch_forward", 300'000, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      tb.sw(0).receive(packet->clone(), 0);
      tb.sim().run();
    }
  });
}

// Word-addressed scratch memory for TCPU timing outside a switch.
class ArrayMemory final : public tcpu::AddressSpace {
 public:
  std::vector<std::uint32_t> words = std::vector<std::uint32_t>(65536, 0);
  ReadResult read(std::uint16_t address, std::uint16_t) override {
    return ReadResult::ok(words[address]);
  }
  core::Fault write(std::uint16_t address, std::uint32_t value,
                    std::uint16_t) override {
    words[address] = value;
    return core::Fault::None;
  }
};

// Tcpu::executeResident of the workload's count-min update hook, with the
// per-packet packet-memory reset the switch does before each run.
double hookExecNs(const ScenarioConfig& c) {
  const monitor::CountMinSketch sketch(
      {.taskId = apps::kTaskSketch,
       .rows = static_cast<std::uint32_t>(c.sketchRows),
       .width = static_cast<std::uint32_t>(c.sketchWidth)});
  constexpr std::uint16_t kBase = 0x100;
  const core::HookProgram hook = sketch.updateHook(kBase);
  std::vector<core::Program> programs;
  for (std::uint32_t i = 0; i < 64; ++i) {
    programs.push_back(core::materializeHook(
        hook, i % static_cast<std::uint32_t>(c.sketchWidth),
        0x9e3779b97f4a7c15ull * (i + 1)));
  }
  return nsPerOp("time.tcpu.hook_exec", 1'000'000, [&](std::uint64_t ops) {
    ArrayMemory mem;
    tcpu::Tcpu tcpu;
    std::vector<std::uint32_t> pmem;
    for (std::uint64_t i = 0; i < ops; ++i) {
      const core::Program& p = programs[i & 63];
      pmem.assign(p.pmemWords, 0u);
      std::copy(p.initialPmem.begin(), p.initialPmem.end(), pmem.begin());
      const auto r = tcpu.executeResident(p.instructions, pmem, p.taskId, mem,
                                          p.initialSp);
      if (!r.ok()) std::abort();
    }
  });
}

// bench_core's FlatMemory: every read succeeds with an address-derived word.
class FlatMemory final : public tcpu::AddressSpace {
 public:
  ReadResult read(std::uint16_t address, std::uint16_t) override {
    return ReadResult::ok(address * 2654435761u);
  }
  core::Fault write(std::uint16_t, std::uint32_t, std::uint16_t) override {
    return core::Fault::None;
  }
};

// Tcpu::execute of the TCP congestion probe at one hop, resetting the
// header between runs as bench_core's tcpu_* metrics do.
double probeExecNs() {
  const core::Program program = apps::makeTcpCongestionProbeProgram();
  auto packet = core::buildTppFrame(net::MacAddress::fromIndex(1),
                                    net::MacAddress::fromIndex(2), program);
  auto view = core::TppView::at(*packet, net::kEthernetHeaderSize);
  if (!view) std::abort();
  const std::uint16_t sp0 = view->stackPointer();
  return nsPerOp("time.tcpu.probe_exec", 1'000'000, [&](std::uint64_t ops) {
    FlatMemory mem;
    tcpu::Tcpu tcpu;
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (!tcpu.execute(*view, mem).ok()) std::abort();
      view->setStackPointer(sp0);
      view->setHopNumber(0);
    }
  });
}

// One probe echo delivered to a Host with `probers` ReliableProbers
// registered, each having sent one probe and received its echo. Every
// prober starts at seq 1 with the same program, so each later echo is
// matched against every prober's completed ring: the fan-out a sender host
// with that many TppTcpControllers pays per echo.
double echoDispatchNs(std::size_t probers) {
  host::Testbed tb;
  buildChain(tb, 1, host::LinkParams{10'000'000'000ULL, sim::Time::us(1)});
  host::Host& src = tb.host(0);
  host::Host& dst = tb.host(1);
  const core::Program program = apps::makeTcpCongestionProbeProgram();
  std::vector<std::unique_ptr<host::ReliableProber>> ps;
  std::uint64_t results = 0;
  for (std::size_t i = 0; i < probers; ++i) {
    ps.push_back(std::make_unique<host::ReliableProber>(
        src, host::ReliableProber::Config{.dstMac = dst.mac(),
                                          .dstIp = dst.ip()}));
    ps.back()->send(program, [&results](const core::ExecutedTpp&) {
      ++results;
    });
  }
  // The echo as the destination sends it: the tagged probe's TPP bytes back
  // to the echo port.
  const core::Program tagged = host::ReliableProber::tagged(program, 1);
  auto probe = src.makeProbeFrame(dst.mac(), dst.ip(), tagged);
  auto echo = dst.makeUdpFrame(
      src.mac(), src.ip(), host::kTppEchoPort, host::kTppEchoPort,
      probe->span().subspan(net::kEthernetHeaderSize, tagged.wireBytes()));
  for (std::size_t i = 0; i < probers; ++i) src.receive(echo->clone(), 0);
  if (results != probers) std::abort();
  const double ns =
      nsPerOp("time.host.echo_dispatch", 200'000, [&](std::uint64_t ops) {
        for (std::uint64_t i = 0; i < ops; ++i) src.receive(echo->clone(), 0);
      });
  if (results != probers) std::abort();
  return ns;
}

// Flight-recorder records counted by layer.
struct LayerCounts {
  bool decoded = false;
  std::uint64_t records = 0, overwritten = 0;
  std::uint64_t linkTx = 0, enqueues = 0, drops = 0;
  std::uint64_t wireExecs = 0, hookExecs = 0, instrs = 0;
  std::uint64_t tcpRetransmits = 0, tcpRtos = 0, cwndCuts = 0;
  std::uint64_t probesSent = 0, probeRetransmits = 0, probeEchoes = 0,
                probeLateEchoes = 0, probeDuplicates = 0;
};

LayerCounts countRecords(const std::vector<std::uint8_t>& bytes) {
  const sim::DecodedTrace t = sim::decodeTrace(bytes);
  LayerCounts n;
  n.decoded = t.ok && !t.truncated && t.badKinds == 0;
  n.records = t.records.size();
  n.overwritten = t.overwritten;
  using K = sim::TraceKind;
  for (const sim::TraceRecord& r : t.records) {
    switch (r.kindOf()) {
      case K::LinkTxStart: ++n.linkTx; break;
      case K::PacketEnqueue: ++n.enqueues; break;
      case K::PacketDrop: ++n.drops; break;
      case K::TcpuExecute:
        ++(r.task == apps::kTaskSketch ? n.hookExecs : n.wireExecs);
        break;
      case K::TcpuRetire: ++n.instrs; break;
      case K::TcpRetransmit: ++n.tcpRetransmits; break;
      case K::TcpRto: ++n.tcpRtos; break;
      case K::TcpCwndCut: ++n.cwndCuts; break;
      case K::ProbeSend: ++n.probesSent; break;
      case K::ProbeRetransmit: ++n.probeRetransmits; break;
      case K::ProbeEcho: ++n.probeEchoes; break;
      case K::ProbeLateEcho: ++n.probeLateEchoes; break;
      case K::ProbeDuplicate: ++n.probeDuplicates; break;
      default: break;
    }
  }
  return n;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

void runTraced(const Args& args, const ScenarioConfig& base, Report& rep) {
  const double deadline = nowS() + args.seconds;

  std::vector<workload::FlowPlan> plans;
  std::vector<double> compiles;
  for (int i = 0; i < 5; ++i) {
    compiles.push_back(timed("compileSchedule", [&] {
      plans = workload::compileSchedule(base);
    }));
  }
  const std::size_t probers = probersPerSender(base, plans);

  // Route tables exactly as buildFatTree leaves them.
  double setup = 0;
  std::size_t l3Routes = 0;
  double matchNs = 0;
  {
    host::Testbed tb;
    setup = timeBuild(base, tb);
    for (std::size_t s = 0; s < tb.switchCount(); ++s) {
      l3Routes = std::max(l3Routes, tb.sw(s).l3().size());
    }
    matchNs = l3MatchNs(tb);
  }
  const double installNs = l3InstallNs(l3Routes, base.k);
  const double eventNs = eventScheduleFireNs();
  const double transitNs = linkTransitNs();
  const double forwardNs = switchForwardNs();
  const double hookNs = hookExecNs(base);
  const double probeNs = probeExecNs();
  const double echoNs = echoDispatchNs(probers);

  // The traced config: the workload at --seed, cut to --trace-flows flows.
  ScenarioConfig tc = base;
  if (args.traceFlows != 0) tc.maxFlows = std::min(tc.maxFlows, args.traceFlows);

  std::vector<double> plainTimes, tracedTimes;
  std::string plainSummary;
  ScenarioResult result;
  LayerCounts counts;
  double allocsPerEvent = 0;
  std::uint64_t unfinished = 0;
  bool deterministic = true, traceAgrees = true;
  for (std::size_t pair = 0;; ++pair) {
    if (pair >= 1 && nowS() >= deadline) break;
    workload::ScenarioRun plain;
    const auto allocs0 = g_allocCount.load(std::memory_order_relaxed);
    plainTimes.push_back(timed("runScenario", [&] {
      plain = workload::runScenario(tc);
    }));
    const auto allocs1 = g_allocCount.load(std::memory_order_relaxed);
    const ScenarioResult& r = plain.result;
    rep.attempted += r.flows;
    unfinished += r.flows - std::min(r.flows, r.finished);
    const std::string summary = r.summaryText(tc);
    if (pair == 0) {
      plainSummary = summary;
      result = r;
      allocsPerEvent = ratio(static_cast<double>(allocs1 - allocs0),
                             static_cast<double>(r.eventsExecuted));
    } else if (summary != plainSummary) {
      deterministic = false;
      rep.failed += r.flows;
    }

    // Ring sized from the untraced run so that nothing is overwritten:
    // under 4 records per event, plus 13 per hook run (one TcpuExecute and
    // one TcpuRetire per instruction). Doubled and rerun if it still
    // overflowed, up to 256 MB; past that the check below fails.
    constexpr std::size_t kMaxRing = std::size_t{1} << 23;
    std::size_t ring = std::size_t{1} << 16;
    while (ring < kMaxRing &&
           ring < 4 * r.eventsExecuted + 13 * r.hookExecutions) {
      ring <<= 1;
    }
    for (;;) {
      workload::RunOptions opt;
      opt.captureTrace = true;
      opt.traceRing = ring;
      workload::ScenarioRun traced;
      const double t = timed("runScenario.traced", [&] {
        traced = workload::runScenario(tc, opt);
      });
      LayerCounts n;
      timed("decodeTrace", [&] { n = countRecords(traced.trace); });
      if (n.overwritten != 0 && ring < kMaxRing) {
        ring <<= 1;
        continue;
      }
      tracedTimes.push_back(t);
      rep.attempted += traced.result.flows;
      if (traced.result.summaryText(tc) != summary) {
        traceAgrees = false;
        rep.failed += traced.result.flows;
      }
      if (pair == 0) counts = n;
      break;
    }
  }

  const double plainS = median(plainTimes);
  std::printf("traced config: max_flows=%zu seed=%llu -> %zu flows, %llu "
              "events, %llu records (%.2f per event); %zu untraced/traced "
              "pairs, untraced %.4fs, traced %.4fs\n",
              tc.maxFlows, static_cast<unsigned long long>(tc.seed),
              result.flows,
              static_cast<unsigned long long>(result.eventsExecuted),
              static_cast<unsigned long long>(counts.records),
              ratio(static_cast<double>(counts.records),
                    static_cast<double>(result.eventsExecuted)),
              plainTimes.size(), plainS, median(tracedTimes));
  std::printf("probers on the busiest sender host: %zu; late echoes: %llu\n",
              probers, static_cast<unsigned long long>(counts.probeLateEchoes));
  std::printf("--- summary of the traced config ---\n%s---\n",
              plainSummary.c_str());

  rep.failed += unfinished;
  rep.check(unfinished == 0, "every flow finishes");
  rep.check(deterministic, "repetitions at one seed are bit-identical");
  rep.check(traceAgrees, "tracing leaves the simulation unchanged");
  rep.check(counts.decoded && counts.overwritten == 0,
            "flight recorder decoded, nothing overwritten");
  rep.check(counts.hookExecs == result.hookExecutions,
            "tcpu.hook_execs == ScenarioResult::hookExecutions");
  rep.check(counts.probesSent == result.tppProbesSent,
            "ProbeSend records == ScenarioResult::tppProbesSent");
  if (tc.monitorSketch) {
    rep.check(result.monitorBoundOk && result.monitorUnderestimates == 0,
              "sketch bound=ok, 0 underestimates");
  }

  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double events = d(result.eventsExecuted);
  const double compileS = median(compiles);
  // Each count times its layer's isolated cost, plus the timed setup and
  // compile. Link transit and switch forwarding include events of their
  // own, so terms overlap; the share is reported, not gated.
  const double accountedNs =
      events * eventNs + d(counts.linkTx) * transitNs +
      d(counts.enqueues) * forwardNs + d(counts.hookExecs) * hookNs +
      d(counts.wireExecs) * probeNs +
      d(counts.probesSent + counts.probeRetransmits) * echoNs +
      (setup + compileS) * 1e9;

  rep.add("sim.events", events, "count");
  rep.add("sim.event_ns", eventNs, "ns");
  rep.add("sim.allocs_per_event", allocsPerEvent, "allocs/event");
  rep.add("net.link_tx", d(counts.linkTx), "count");
  rep.add("net.link_transit_ns", transitNs, "ns");
  rep.add("asic.enqueues", d(counts.enqueues), "count");
  rep.add("asic.drops", d(counts.drops), "count");
  rep.add("asic.drop_ratio",
          ratio(d(counts.drops), d(counts.enqueues + counts.drops)), "ratio");
  rep.add("asic.l3_routes", d(l3Routes), "count");
  rep.add("asic.l3_install_ns", installNs, "ns");
  rep.add("asic.l3_match_ns", matchNs, "ns");
  rep.add("asic.switch_forward_ns", forwardNs, "ns");
  rep.add("tcpu.wire_execs", d(counts.wireExecs), "count");
  rep.add("tcpu.hook_execs", d(counts.hookExecs), "count");
  rep.add("tcpu.instrs", d(counts.instrs), "count");
  rep.add("tcpu.hook_exec_ns", hookNs, "ns");
  rep.add("tcpu.probe_exec_ns", probeNs, "ns");
  rep.add("host.tcp_retransmits", d(counts.tcpRetransmits), "count");
  rep.add("host.tcp_rtos", d(counts.tcpRtos), "count");
  rep.add("host.cwnd_cuts", d(counts.cwndCuts), "count");
  rep.add("host.probes_sent", d(counts.probesSent), "count");
  rep.add("host.probe_retransmits", d(counts.probeRetransmits), "count");
  rep.add("host.probe_echoes", d(counts.probeEchoes), "count");
  rep.add("host.probe_duplicates", d(counts.probeDuplicates), "count");
  rep.add("host.probe_useful_ratio",
          ratio(d(counts.probeEchoes),
                d(counts.probesSent + counts.probeRetransmits)),
          "ratio");
  rep.add("host.echo_dispatch_ns", echoNs, "ns");
  rep.add("workload.flows", d(result.flows), "count");
  rep.add("workload.failed_flows",
          d(result.flows - std::min(result.flows, result.finished)), "count");
  rep.add("workload.compile_ms", compileS * 1e3, "ms");
  rep.add("monitor.checks", d(result.monitorChecks), "count");
  rep.add("monitor.eps_violations", d(result.monitorEpsViolations), "count");
  rep.add("monitor.hh_recall",
          result.hhTrue == 0
              ? 1.0
              : ratio(d(result.hhTrue - result.hhMissed), d(result.hhTrue)),
          "ratio");
  rep.add("accounted_share", ratio(accountedNs * 1e-9, plainS), "ratio");
  rep.add("trace.overhead_s", median(tracedTimes) - plainS, "s");
  rep.add("trace.overwritten", d(counts.overwritten), "count");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: scenbench_driver --scn FILE [--seed N] [--seconds S] "
                 "[--replicas R] [--setup-per-run X] [--trace-flows F] "
                 "[--max-flows F] [--trace 0|1] [--spans FILE]\n");
    return 2;
  }
  const int root = g_spans.open(args.trace != 0 ? "bench.traced"
                                                : "bench.end_to_end");
  workload::ParsedScenario parsed;
  timed("parseScenario",
        [&] { parsed = workload::parseScenarioFile(args.scn); });
  if (!parsed.ok) {
    std::fprintf(stderr, "scenbench_driver: %s: %s\n", args.scn.c_str(),
                 parsed.error.c_str());
    return 2;
  }
  ScenarioConfig c = parsed.config;
  if (c.topology != workload::TopologyType::FatTree || c.shards != 1) {
    std::fprintf(stderr,
                 "scenbench_driver: workloads are 1-shard fat trees\n");
    return 2;
  }
  if (args.seed) c.seed = *args.seed;
  if (args.maxFlows != 0) c.maxFlows = std::min(c.maxFlows, args.maxFlows);

  Report rep;
  if (args.trace != 0) {
    runTraced(args, c, rep);
  } else {
    runEndToEnd(args, c, rep);
  }
  g_spans.close(root);
  if (args.trace != 0) g_spans.printSelfTimes();
  if (!args.spans.empty()) {
    rep.check(g_spans.write(args.spans), "spans written to " + args.spans);
  }
  rep.print();
  return 0;
}
