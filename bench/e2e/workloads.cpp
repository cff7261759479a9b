#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "carpool/transceiver.hpp"
#include "channel/fading.hpp"
#include "chaos/json.hpp"
#include "chaos/runner.hpp"
#include "mac/domain_sim.hpp"
#include "obs/registry.hpp"
#include "phy/frame.hpp"
#include "sim/multi_bss.hpp"
#include "traffic/frame_sizes.hpp"
#include "traffic/generators.hpp"

namespace carpool::bench_e2e {
namespace {

// ------------------------------------------------------------ input files

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

chaos::JsonValue read_json(const std::string& path) {
  chaos::JsonParseResult doc = chaos::json_parse(read_file(path));
  if (!doc.ok()) {
    throw std::runtime_error(path + ": " + doc.error.to_string());
  }
  return std::move(*doc.value);
}

const chaos::JsonValue& member(const chaos::JsonValue& obj,
                               std::string_view key) {
  const chaos::JsonValue* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error("missing key \"" + std::string(key) + "\"");
  }
  return *v;
}

double number(const chaos::JsonValue& obj, std::string_view key) {
  const chaos::JsonValue& v = member(obj, key);
  if (!v.is_number()) {
    throw std::runtime_error("\"" + std::string(key) + "\" is not a number");
  }
  return v.as_number();
}

std::vector<std::size_t> index_list(const chaos::JsonValue& obj,
                                    std::string_view key) {
  const chaos::JsonValue& v = member(obj, key);
  if (!v.is_array()) {
    throw std::runtime_error("\"" + std::string(key) + "\" is not a list");
  }
  std::vector<std::size_t> out;
  for (const chaos::JsonValue& e : v.as_array()) {
    std::uint64_t n = 0;
    if (!chaos::json_to_u64(&e, n)) {
      throw std::runtime_error("\"" + std::string(key) +
                               "\" holds a non-integer");
    }
    out.push_back(static_cast<std::size_t>(n));
  }
  if (out.empty()) {
    throw std::runtime_error("\"" + std::string(key) + "\" is empty");
  }
  return out;
}

chaos::Scenario read_scenario(const std::string& path) {
  chaos::ScenarioParseResult parsed =
      chaos::scenario_from_json(read_file(path));
  if (!parsed.ok()) {
    throw std::runtime_error(path + ": " + parsed.error.to_string());
  }
  return std::move(*parsed.scenario);
}

/// Per-workload salt of the op seed: FNV-1a of the workload name.
std::uint64_t salt_of(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : name) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  return h;
}

/// Wall times of one op at N threads and at 1 thread (traced runs).
struct ThreadPair {
  std::int64_t n_ns = 0;
  std::int64_t one_ns = 0;
  bool same_fingerprint = false;

  [[nodiscard]] double efficiency(std::size_t threads) const {
    return static_cast<double>(one_ns) /
           (static_cast<double>(threads) * static_cast<double>(n_ns));
  }
};

/// Run the op twice at N threads, then once at 1 thread, each under a
/// fresh registry whose metric fingerprint must come out the same. The
/// first N-thread run after a single-thread stretch can find the host's
/// idle cores handed to other tenants (it then runs no faster than one
/// thread); the faster of two back-to-back runs measures the program.
template <class RunN, class Run1>
ThreadPair time_thread_pair(RunN run_n, Run1 run_1, SpanLog& spans,
                            const std::string& span) {
  std::array<obs::Registry, 2> reg_n;
  obs::Registry reg_1;
  ThreadPair out;
  out.n_ns = std::numeric_limits<std::int64_t>::max();
  for (obs::Registry& reg : reg_n) {
    const std::int64_t t0 = now_ns();
    {
      const obs::Registry::ScopedCurrent scope(reg);
      run_n();
    }
    const std::int64_t t1 = now_ns();
    spans.add(span + ".threads_n", t0, t1);
    out.n_ns = std::min(out.n_ns, t1 - t0);
  }
  const std::int64_t t0 = now_ns();
  {
    const obs::Registry::ScopedCurrent scope(reg_1);
    run_1();
  }
  const std::int64_t t1 = now_ns();
  spans.add(span + ".threads_1", t0, t1);
  out.one_ns = t1 - t0;
  const std::uint64_t fingerprint = reg_1.fingerprint();
  out.same_fingerprint = reg_n[0].fingerprint() == fingerprint &&
                         reg_n[1].fingerprint() == fingerprint;
  return out;
}

/// Scenario seed of op `op`. Warm-up ops ignore the run seed, so every
/// run's set-ups do the same work whatever the seed.
std::uint64_t op_seed(std::uint64_t run_seed, std::uint64_t op,
                      std::uint64_t salt) {
  return chaos::derive_seed(op >= kWarmupOp ? 0 : run_seed, op, salt);
}

// ------------------------------------------------------ soak (MAC engine)

class SoakWorkload final : public Workload {
 public:
  SoakWorkload(chaos::Scenario scenario, std::uint64_t judgements,
               std::size_t threads, std::uint64_t seed, std::uint64_t salt)
      : scenario_(std::move(scenario)), seed_(seed), salt_(salt) {
    opts_.max_frames = judgements;
    opts_.threads = threads;
  }

  void prepare(std::uint64_t op) override {
    scenario_.seed = op_seed(seed_, op, salt_);
  }

  void run() override { report_ = chaos::SoakRunner(opts_).run(scenario_); }

  OpCheck check() override { return check_report(report_); }

  OpCheck trace(Attribution& at, SpanLog& spans) override {
    OpCheck c;
    std::int64_t untraced_ns = 0;  // 1-thread time of the replayed work
    if (opts_.threads > 1) {
      // The N-thread campaign against the 1-thread one: reports and
      // metric fingerprints must be identical.
      chaos::SoakOptions serial = opts_;
      serial.threads = 1;
      chaos::SoakReport report_1;
      const ThreadPair pair = time_thread_pair(
          [&] { run(); },
          [&] { report_1 = chaos::SoakRunner(serial).run(scenario_); },
          spans, "soak.campaign");
      c = check_report(report_);
      const std::string diff =
          diff_totals(totals_of(report_1), totals_of(report_));
      if (c.error.empty() && !diff.empty()) {
        c.error = "N-thread campaign differs from 1 thread: " + diff;
      }
      if (c.error.empty() && !pair.same_fingerprint) {
        c.error = "metrics fingerprint differs between 1 and N threads";
      }
      at.efficiency.push_back(pair.efficiency(opts_.threads));
      untraced_ns = pair.one_ns;
    } else {
      const StageSample before = StageSample::read();
      const std::int64_t t0 = now_ns();
      run();
      const std::int64_t t1 = now_ns();
      at.stages += StageSample::read() - before;
      spans.add("soak.campaign", t0, t1);
      c = check_report(report_);
      untraced_ns = t1 - t0;
    }
    at.repeats += report_.repeats;
    at.probes += report_.probes;

    // Decode probes change no MAC state, so the probe-free campaign makes
    // the same judgements with the same goodput; the time it saves is the
    // probes' time, and it is the campaign the replay reproduces.
    chaos::Scenario replayed = scenario_;
    chaos::SoakReport reference = report_;
    double probe_ns = 0.0;
    if (scenario_.probe_interval > 0.0) {
      replayed.probe_interval = 0.0;
      const std::int64_t t0 = now_ns();
      reference = chaos::SoakRunner(opts_).run(replayed);
      const std::int64_t t1 = now_ns();
      spans.add("soak.campaign.no_probes", t0, t1);
      SoakTotals probed = totals_of(report_);
      for (const char* probe_check :
           {"decode_no_throw", "decode_accounting", "rte_bounded"}) {
        probed.margins.erase(probe_check);
      }
      const std::string diff = diff_totals(probed, totals_of(reference));
      if (c.error.empty() && !diff.empty()) {
        c.error = "probe-free campaign differs: " + diff;
      }
      probe_ns = std::max<double>(0.0, static_cast<double>(
                                           untraced_ns - (t1 - t0)));
      untraced_ns = t1 - t0;
    }

    chaos::SoakOptions serial = opts_;
    serial.threads = 1;
    const std::int64_t t0 = now_ns();
    const SoakTotals got = replay_soak(replayed, serial, at, spans);
    const std::int64_t replay_ns = now_ns() - t0;
    const std::string diff = diff_totals(totals_of(reference), got);
    if (c.error.empty() && !diff.empty()) {
      c.error = "replay differs from the campaign: " + diff;
    }
    at.probe_ns += probe_ns;
    at.traced_ns += static_cast<double>(replay_ns);
    at.untraced_ns += static_cast<double>(untraced_ns);
    at.total_ns += static_cast<double>(replay_ns) + probe_ns;
    return c;
  }

 private:
  OpCheck check_report(const chaos::SoakReport& r) const {
    OpCheck c;
    c.work = static_cast<double>(r.frames_judged);
    c.digest = Digest()
                   .add(r.frames_judged)
                   .add(r.steps)
                   .add(r.probes)
                   .add(static_cast<std::uint64_t>(r.repeats))
                   .add(static_cast<std::uint64_t>(r.episodes_run))
                   .add(r.mean_goodput_bps)
                   .add(r.min_margin())
                   .value();
    if (!r.violations.empty()) {
      const chaos::Violation& v = r.violations.front();
      c.error = "invariant " + v.invariant + " violated at frame " +
                std::to_string(v.frame) + ": " + v.detail;
    } else if (r.degraded.degraded()) {
      c.error = "degraded report: " +
                std::to_string(r.degraded.quarantined.size()) +
                " repeats quarantined";
    } else if (!r.resume_error.empty()) {
      c.error = "resume error: " + r.resume_error;
    } else if (r.frames_judged < opts_.max_frames) {
      c.error = "campaign stopped after " + std::to_string(r.frames_judged) +
                " of " + std::to_string(opts_.max_frames) + " judgements";
    } else if (scenario_.probe_interval > 0.0 && r.probes == 0) {
      c.error = "no decode probe fired";
    }
    return c;
  }

  chaos::Scenario scenario_;
  chaos::SoakOptions opts_;
  chaos::SoakReport report_;
  std::uint64_t seed_;
  std::uint64_t salt_;
};

// ------------------------------------------------------ link (real PHY)

/// Largest frame FrameSizeDistribution draws (its range is 40-1500 bytes).
constexpr std::size_t kMaxFrameBytes = 1500;

class LinkWorkload final : public Workload {
 public:
  LinkWorkload(const chaos::JsonValue& mix, std::uint64_t seed,
               std::uint64_t salt)
      : counts_(index_list(mix, "subframes_per_frame")),
        mcs_(index_list(mix, "mcs")),
        frame_sizes_(traffic::TraceKind::kSigcomm),
        seed_(seed),
        salt_(salt) {
    const chaos::JsonValue& dist = member(mix, "frame_sizes");
    if (!dist.is_string() || dist.as_string() != "sigcomm") {
      throw std::runtime_error("\"frame_sizes\" must be \"sigcomm\"");
    }
    const auto stations = static_cast<std::uint32_t>(number(mix, "stations"));
    for (const std::size_t n : counts_) {
      if (n == 0 || n > stations || n > kMaxReceivers) {
        throw std::runtime_error("subframe count out of range");
      }
    }
    for (const std::size_t m : mcs_) {
      if (m > 7) throw std::runtime_error("MCS index out of range");
    }
    for (std::uint32_t sta = 1; sta <= stations; ++sta) {
      CarpoolRxConfig cfg;
      cfg.self = MacAddress::for_station(sta);
      receivers_.emplace_back(cfg);
    }
    const chaos::JsonValue& ch = member(mix, "channel");
    channel_.snr_db = number(ch, "snr_db");
    channel_.num_taps = static_cast<std::size_t>(number(ch, "num_taps"));
    channel_.tap_decay = number(ch, "tap_decay");
    channel_.coherence_time = number(ch, "coherence_time");
  }

  /// One frame takes 1-15 ms depending on its seeded size, too little and
  /// too uneven to time a set-up by; 24 cover every subframe count.
  [[nodiscard]] std::size_t warmup_ops() const override { return 24; }

  void prepare(std::uint64_t op) override {
    Rng rng(op_seed(seed_, op, salt_));
    // The run's first warm-up op, on a fresh heap, is the largest frame
    // the mix allows, so peak memory is the mix's worst case rather than
    // the largest frame a seed happens to draw. Later set-ups run it on a
    // heap the seed's ops have fragmented, where its peak varies by seed.
    const bool largest = op == kWarmupOp;
    const std::size_t n =
        largest ? *std::max_element(counts_.begin(), counts_.end())
                : counts_[op % counts_.size()];
    // n distinct receiving stations, in random order.
    std::vector<std::uint32_t> stations(receivers_.size());
    std::iota(stations.begin(), stations.end(), 1u);
    for (std::size_t i = stations.size(); i > 1; --i) {
      std::swap(stations[i - 1], stations[rng.uniform_int(i)]);
    }
    subframes_.assign(n, SubframeSpec{});
    for (std::size_t k = 0; k < n; ++k) {
      SubframeSpec& sub = subframes_[k];
      sub.receiver = MacAddress::for_station(stations[k]);
      const std::size_t bytes =
          largest ? kMaxFrameBytes : frame_sizes_.sample(rng);
      Bytes body(bytes - 4);  // 4 FCS bytes follow
      for (std::uint8_t& b : body) {
        b = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
      sub.psdu = append_fcs(body);
      sub.mcs_index = largest ? *std::min_element(mcs_.begin(), mcs_.end())
                              : mcs_[rng.uniform_int(mcs_.size())];
    }
    // The receiving station rotates through the frame's subframes.
    rx_station_ = stations[(op / counts_.size()) % n];
    channel_.seed = rng();
  }

  void run() override {
    const CxVec wave = tx_.build(subframes_);
    FadingChannel channel(channel_);
    const CxVec rx_wave = channel.transmit(wave);
    result_ = receiver().receive(rx_wave);
  }

  OpCheck check() override { return check_result(result_); }

  OpCheck trace(Attribution& at, SpanLog& spans) override {
    const std::int64_t u0 = now_ns();
    run();
    const std::int64_t u1 = now_ns();
    spans.add("link.frame", u0, u1);
    OpCheck c = check_result(result_);
    const CarpoolRxResult untraced = result_;

    // The same frame again, one public call at a time, with the PHY's
    // stage sums read around build() and receive().
    const StageSample s0 = StageSample::read();
    const std::int64_t t0 = now_ns();
    const CxVec wave = tx_.build(subframes_);
    const std::int64_t t1 = now_ns();
    const StageSample s1 = StageSample::read();
    FadingChannel channel(channel_);
    const std::int64_t t2 = now_ns();
    const CxVec rx_wave = channel.transmit(wave);
    const std::int64_t t3 = now_ns();
    const StageSample s2 = StageSample::read();
    const std::int64_t t4 = now_ns();
    result_ = receiver().receive(rx_wave);
    const std::int64_t t5 = now_ns();
    const StageSample s3 = StageSample::read();
    // The receive front end alone, on the same waveform.
    const std::int64_t f0 = now_ns();
    const Frontend fe = receive_frontend(rx_wave);
    const std::int64_t f1 = now_ns();
    const bool frontend_failed = fe.status != DecodeStatus::kOk;
    if (c.error.empty() && (frontend_failed
                                ? untraced.status != fe.status
                                : untraced.status == DecodeStatus::kSyncLost)) {
      c.error = "receive_frontend disagrees with receive()";
    }
    if (c.error.empty() && !same_decode(untraced, result_)) {
      c.error = "traced frame decoded differently from the untraced one";
    }

    at.tx_build.add(t1 - t0);
    at.channel.add(t3 - t2);
    at.rx.add(t5 - t4);
    at.frontend.add(f1 - f0);
    at.stages += s1 - s0;
    at.stages += s3 - s2;
    at.symbols_full += result_.symbols_full_decoded;
    at.symbols_skipped += result_.symbols_pilot_only;
    at.total_ns += static_cast<double>(t5 - t0);
    at.traced_ns += static_cast<double>(t5 - t0);
    at.untraced_ns += static_cast<double>(u1 - u0);
    spans.add("tx.build", t0, t1, 2);
    spans.add("channel.transmit", t2, t3, 2);
    spans.add("rx.receive", t4, t5, 2);
    spans.add("rx.frontend", f0, f1, 2);
    return c;
  }

 private:
  const CarpoolReceiver& receiver() const {
    return receivers_[rx_station_ - 1];
  }

  static bool same_decode(const CarpoolRxResult& a, const CarpoolRxResult& b) {
    if (a.status != b.status || a.matched != b.matched ||
        a.subframes.size() != b.subframes.size() ||
        a.symbols_full_decoded != b.symbols_full_decoded) {
      return false;
    }
    for (std::size_t i = 0; i < a.subframes.size(); ++i) {
      const DecodedSubframe& x = a.subframes[i];
      const DecodedSubframe& y = b.subframes[i];
      if (x.index != y.index || x.status != y.status ||
          x.fcs_ok != y.fcs_ok || x.psdu != y.psdu) {
        return false;
      }
    }
    return true;
  }

  OpCheck check_result(const CarpoolRxResult& r) const {
    OpCheck c;
    c.work = 1.0;
    Digest d;
    d.add(static_cast<std::uint64_t>(r.status))
        .add(static_cast<std::uint64_t>(r.matched.size()))
        .add(static_cast<std::uint64_t>(r.symbols_full_decoded))
        .add(r.sync_quality);
    if (r.status == DecodeStatus::kInternalError ||
        r.status == DecodeStatus::kBadConfig) {
      c.error = "receive() reported " + std::string(to_string(r.status));
    }
    for (const DecodedSubframe& sub : r.subframes) {
      d.add(static_cast<std::uint64_t>(sub.index))
          .add(static_cast<std::uint64_t>(sub.status))
          .add(static_cast<std::uint64_t>(sub.fcs_ok));
      if (!sub.fcs_ok || !c.error.empty()) continue;
      if (sub.index >= subframes_.size()) {
        c.error = "FCS-valid subframe index " + std::to_string(sub.index) +
                  " beyond the frame";
      } else if (sub.psdu != subframes_[sub.index].psdu) {
        c.error = "FCS-valid subframe " + std::to_string(sub.index) +
                  " decoded a PSDU that was not sent";
      }
    }
    c.digest = d.value();
    return c;
  }

  std::vector<std::size_t> counts_;
  std::vector<std::size_t> mcs_;
  traffic::FrameSizeDistribution frame_sizes_;
  std::vector<CarpoolReceiver> receivers_;
  const CarpoolTransmitter tx_;
  FadingConfig channel_;
  std::vector<SubframeSpec> subframes_;
  std::uint32_t rx_station_ = 1;
  CarpoolRxResult result_;
  std::uint64_t seed_;
  std::uint64_t salt_;
};

// ------------------------------------------------ campus (multi-BSS MAC)

/// An untraced op whose index is a multiple of this is rerun at 1 thread
/// and must match bit for bit; every traced op is.
constexpr std::uint64_t kSerialCheckEvery = 8;

class CampusWorkload final : public Workload {
 public:
  CampusWorkload(sim::MultiBssConfig base, std::uint64_t seed,
                 std::uint64_t salt)
      : base_(std::move(base)), seed_(seed), salt_(salt) {}

  void prepare(std::uint64_t op) override {
    op_ = op;
    config_ = base_;
    config_.seed = op_seed(seed_, op, salt_);
  }

  void run() override {
    sim_.emplace(config_);
    result_ = sim_->run();
  }

  OpCheck check() override {
    OpCheck c = summarize(result_);
    if (c.error.empty() && op_ < kWarmupOp && op_ % kSerialCheckEvery == 0) {
      sim::MultiBssConfig serial = config_;
      serial.threads = 1;
      c.error = diff_campaigns(sim::MultiBssSim(serial).run(), result_);
    }
    return c;
  }

  OpCheck trace(Attribution& at, SpanLog& spans) override {
    // The N-thread campaign against the 1-thread one: every domain and
    // the metric fingerprint must match.
    sim::MultiBssConfig serial = config_;
    serial.threads = 1;
    sim::MultiBssResult one;
    const ThreadPair pair = time_thread_pair(
        [&] { run(); }, [&] { one = sim::MultiBssSim(serial).run(); }, spans,
        "campus.campaign");
    OpCheck c = summarize(result_);
    if (c.error.empty()) c.error = diff_campaigns(one, result_);
    if (c.error.empty() && !pair.same_fingerprint) {
      c.error = "metrics fingerprint differs between 1 and N threads";
    }
    at.efficiency.push_back(
        pair.efficiency(static_cast<std::size_t>(config_.threads)));

    // Every domain again through domain_config + DomainSim with the
    // layer timers wrapped around its SINR, PHY model and traffic calls.
    const auto phy = std::make_shared<TimedPhyModel>(at);
    double replay_ns = 0.0;
    for (const sim::DomainRun& run : one.runs) {
      if (run.stas.empty()) continue;
      const std::int64_t d0 = now_ns();
      mac::SimConfig cfg =
          sim_->domain_config(run.epoch, run.ap, run.start, run.stop, run.stas);
      cfg.sta_snr_fn = [sinr = std::move(cfg.sta_snr_fn), &at](
                           mac::NodeId sta, double now) {
        const std::int64_t s0 = now_ns();
        const double v = sinr(sta, now);
        at.sinr.add(now_ns() - s0);
        return v;
      };
      cfg.phy = phy;
      cfg.observer = [&at](const mac::SimStepView& view) {
        if (view.txop.downlink && !view.txop.collision) {
          ++at.ap_txops;
          at.ap_subunits += view.txop.subunits;
        }
        return true;
      };
      mac::DomainSim domain(std::move(cfg), static_cast<std::uint32_t>(run.ap));
      // The CBR flows MultiBssSim::run gives a domain's local STAs (a copy
      // of its flow set-up, which the replay check keeps honest).
      for (std::size_t local = 1; local <= run.stas.size(); ++local) {
        mac::FlowSpec flow = traffic::make_cbr_flow(
            static_cast<mac::NodeId>(local), config_.frame_bytes,
            config_.cbr_interval);
        time_flow(flow, at);
        domain.add_flow(std::move(flow));
      }
      const mac::SimResult res = domain.run();
      const std::int64_t d1 = now_ns();
      const std::string diff = diff_sim_results(run.result, res);
      if (c.error.empty() && !diff.empty()) {
        c.error = "traced replay, " + domain_error(run, diff);
      }
      at.tx_attempts += res.tx_attempts;
      at.collisions += res.collisions;
      at.engine_ns += d1 - d0;
      at.shard_ns.push_back(static_cast<double>(d1 - d0));
      replay_ns += static_cast<double>(d1 - d0);
      spans.add("replay.domain", d0, d1, 2);
    }
    at.domains += one.domains_simulated;
    at.epochs += one.ap_count == 0 ? 0 : one.runs.size() / one.ap_count;
    at.total_ns += replay_ns;
    at.traced_ns += replay_ns;
    at.untraced_ns += static_cast<double>(pair.one_ns);
    return c;
  }

 private:
  static std::string domain_error(const sim::DomainRun& run,
                                  const std::string& diff) {
    return "domain (epoch " + std::to_string(run.epoch) + ", AP " +
           std::to_string(run.ap) + ") differs: " + diff;
  }

  /// Empty when the N-thread campaign `got` reproduces the 1-thread
  /// campaign `want` bit for bit, domain by domain and in its totals.
  static std::string diff_campaigns(const sim::MultiBssResult& want,
                                    const sim::MultiBssResult& got) {
    if (want.runs.size() != got.runs.size()) {
      return "N threads ran a different number of domains than 1 thread";
    }
    for (std::size_t i = 0; i < want.runs.size(); ++i) {
      std::string diff = diff_sim_results(want.runs[i].result,
                                          got.runs[i].result);
      if (diff.empty() && want.runs[i].stas != got.runs[i].stas) {
        diff = "served STAs";
      }
      if (!diff.empty()) {
        return "N threads vs 1 thread, " + domain_error(got.runs[i], diff);
      }
    }
    if (std::bit_cast<std::uint64_t>(want.aggregate_goodput_bps) !=
            std::bit_cast<std::uint64_t>(got.aggregate_goodput_bps) ||
        want.per_ap_goodput_bps != got.per_ap_goodput_bps ||
        want.handovers.size() != got.handovers.size()) {
      return "N threads vs 1 thread: campaign totals differ";
    }
    return {};
  }

  /// Work, digest and the output checks: the domain accounting and the
  /// totals agree with the domains. Goodput is compared to a relative
  /// 1e-9, so the check holds whatever order MultiBssSim sums in.
  OpCheck summarize(const sim::MultiBssResult& r) const {
    OpCheck c;
    c.work = static_cast<double>(r.domains_simulated);
    Digest d;
    d.add(r.aggregate_goodput_bps)
        .add(r.dl_frames_delivered)
        .add(r.dl_frames_dropped)
        .add(r.collisions)
        .add(static_cast<std::uint64_t>(r.handovers.size()));
    c.digest = d.value();
    std::uint64_t simulated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t collisions = 0;
    double goodput = 0.0;
    for (const sim::DomainRun& run : r.runs) {
      if (run.stas.empty()) continue;
      ++simulated;
      delivered += run.result.dl_frames_delivered;
      dropped += run.result.dl_frames_dropped;
      collisions += run.result.collisions;
      goodput +=
          (run.result.downlink_goodput_bps + run.result.uplink_goodput_bps) *
          (run.stop - run.start) / r.duration;
    }
    if (r.ap_count == 0 || r.runs.size() % r.ap_count != 0 ||
        simulated != r.domains_simulated ||
        simulated + r.domains_idle != r.runs.size()) {
      c.error = "domain accounting does not add up";
    } else if (simulated == 0) {
      c.error = "no collision domain was simulated";
    } else if (delivered != r.dl_frames_delivered ||
               dropped != r.dl_frames_dropped ||
               collisions != r.collisions) {
      c.error = "frame totals are not the sums of their domains";
    } else if (!(r.aggregate_goodput_bps > 0.0) ||
               std::fabs(r.aggregate_goodput_bps - goodput) >
                   1e-9 * r.aggregate_goodput_bps) {
      c.error = "aggregate goodput is not the total of its domains";
    }
    return c;
  }

  sim::MultiBssConfig base_;
  sim::MultiBssConfig config_;
  std::optional<sim::MultiBssSim> sim_;
  sim::MultiBssResult result_;
  std::uint64_t op_ = 0;
  std::uint64_t seed_;
  std::uint64_t salt_;
};

/// Campus spec -> MultiBssConfig: the AP grid, the STA population and
/// `walkers` STAs that cross the campus corner to corner over the run.
sim::MultiBssConfig read_campus(const chaos::JsonValue& spec, bool small) {
  sim::MultiBssConfig cfg;
  cfg.topology.ap_count = static_cast<std::size_t>(number(spec, "ap_count"));
  cfg.topology.roam_interval = number(spec, "roam_interval");
  cfg.num_stas = static_cast<std::size_t>(number(spec, "num_stas"));
  cfg.duration = small ? 0.4 : number(spec, "duration");
  cfg.frame_bytes = static_cast<std::size_t>(number(spec, "frame_bytes"));
  cfg.cbr_interval = number(spec, "cbr_interval");
  cfg.layout_seed = static_cast<std::uint64_t>(number(spec, "layout_seed"));
  const auto walkers = static_cast<std::size_t>(number(spec, "walkers"));
  if (walkers > cfg.num_stas) {
    throw std::runtime_error("more walkers than STAs");
  }

  const sim::Topology topo(cfg.topology, cfg.power_magnitude,
                           cfg.layout_seed);
  // Grid corners: lower-left, lower-right, upper-left, upper-right.
  std::size_t corner[4] = {0, 0, 0, 0};
  for (std::size_t ap = 1; ap < topo.ap_count(); ++ap) {
    const sim::Point p = topo.ap_position(ap);
    const auto better = [&](std::size_t c, bool right, bool up) {
      const sim::Point q = topo.ap_position(corner[c]);
      const double dx = right ? p.x - q.x : q.x - p.x;
      const double dy = up ? p.y - q.y : q.y - p.y;
      return dx + dy > 0.0;
    };
    if (better(0, false, false)) corner[0] = ap;
    if (better(1, true, false)) corner[1] = ap;
    if (better(2, false, true)) corner[2] = ap;
    if (better(3, true, true)) corner[3] = ap;
  }
  cfg.paths.resize(cfg.num_stas + 1);
  for (std::size_t w = 0; w < walkers; ++w) {
    const sim::Point from = topo.ap_position(corner[w % 4]);
    const sim::Point to = topo.ap_position(corner[3 - w % 4]);
    const double off = 1.0 + static_cast<double>(w / 4);
    cfg.paths[w + 1] = sim::MobilityPath(std::vector<sim::TimedPoint>{
        {0.0, {from.x + off, from.y + off}},
        {cfg.duration, {to.x + off, to.y + off}}});
  }
  return cfg;
}

}  // namespace

const std::vector<WorkloadInfo>& workload_table() {
  static const std::vector<WorkloadInfo> kTable{
      {"steady", "judgements", 1},
      {"steady_mt", "judgements", 0},
      {"ladder", "judgements", 1},
      {"link", "frames", 1},
      {"campus", "domain runs", 0},
  };
  return kTable;
}

const WorkloadInfo* find_workload(std::string_view name) {
  for (const WorkloadInfo& w : workload_table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Workload> make_workload(const WorkloadInfo& info,
                                        std::uint64_t seed,
                                        const WorkloadOptions& opts) {
  const std::string dir = opts.input_dir + "/";
  const std::uint64_t salt = salt_of(info.name);
  const std::size_t threads = info.threads == 0 ? opts.threads : info.threads;
  if (info.name == "steady") {
    // Pure MAC path: event engine, AnalyticPhyModel, traffic and step
    // invariants, no decode probes and no threads. One op is a campaign
    // of about five timeline repeats.
    return std::make_unique<SoakWorkload>(read_scenario(dir + "steady.json"),
                                          opts.small ? 20000 : 100000,
                                          threads, seed, salt);
  }
  if (info.name == "steady_mt") {
    // The same campaign at N threads: the only workload through the soak
    // wave scheduler (speculative waves, shard registry merges).
    return std::make_unique<SoakWorkload>(read_scenario(dir + "steady.json"),
                                          opts.small ? 40000 : 400000,
                                          threads, seed, salt);
  }
  if (info.name == "ladder") {
    // Probe-heavy: one full 16 s timeline with its real-PHY decode probes
    // plus the start of the next, at degraded SNR with rate adaptation
    // and suspension. Smaller campaigns stop inside the ladder, where
    // the campaign-level goodput_cliff check sees a truncated rung.
    return std::make_unique<SoakWorkload>(
        read_scenario(dir + "interference_ladder.json"), 25000, threads,
        seed, salt);
  }
  if (info.name == "link") {
    // PHY only: build -> fading channel -> receive, one frame per op.
    return std::make_unique<LinkWorkload>(read_json(dir + "link.json"), seed,
                                          salt);
  }
  if (info.name == "campus") {
    // Many small collision domains plus co-channel SINR, sharded by
    // MultiBssSim across N threads.
    sim::MultiBssConfig cfg =
        read_campus(read_json(dir + "campus.json"), opts.small);
    cfg.threads = static_cast<int>(threads);
    return std::make_unique<CampusWorkload>(std::move(cfg), seed, salt);
  }
  throw std::runtime_error("unknown workload " + std::string(info.name));
}

}  // namespace carpool::bench_e2e
