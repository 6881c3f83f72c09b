// Traced replay of one benchmark input through the xswap library.
//
// The end-to-end benchmark drives the shipped `xswap serve` / `xswap
// batch` binary with tracing off. This program gives the per-layer
// numbers: it replays the same input through each layer's public
// functions, in the order the service uses them, and records a span
// around every call. Nothing inside the library is instrumented.
//
//   serve mode: [persist] recover the start state -> per line
//               [serve] parse_event_line -> IncrementalClearing add/expire;
//               at each `clear` (and the final drain) consume, then per
//               component: SwapEngine build, run, check_all. A
//               decompose_offers of the live book before each consume
//               cross-checks streaming == batch (a bench.* span).
//   batch mode: parse every line -> decompose_offers on the whole book
//               -> per component: build, run, check_all.
//   afterwards (untraced): verify_hashkey re-timed on sampled hashkeys,
//               and with --durable every journal of the start state
//               re-appended through a fresh SegmentStore, timing appends
//               and group-commit fsyncs.
//
// Spans stay in memory and are written at exit (--spans, JSON lines:
// name, start/end in ns, parent span index, clear point, component).
// Work the benchmark does for itself runs inside `bench.*` spans, which
// the self-time accounting leaves out. Counts that depend only on the
// input (components, signatures, transactions, simulated ticks) and the
// deterministic fields of every component go to --summary, so the
// benchmark can compare them with the untraced child's output.
//
// Usage:
//   xswap_trace --mode serve|batch --input FILE --work DIR
//               --spans FILE --summary FILE [--durable START_DIR]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "persist/durable_ledger.hpp"
#include "persist/segment_store.hpp"
#include "serve/events.hpp"
#include "serve/incremental.hpp"
#include "swap/clearing.hpp"
#include "swap/contract.hpp"
#include "swap/engine.hpp"
#include "swap/hashkey.hpp"
#include "swap/invariants.hpp"

namespace fs = std::filesystem;
using namespace xswap;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  long parent;
  long clear;
  long component;
};

// In-memory span recorder. Scope is RAII: it opens a span as a child of
// the innermost open one and closes it on destruction.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name, long clear, long component)
        : tracer_(t), index_(static_cast<long>(t.spans_.size())) {
      t.spans_.push_back(Span{name, t.now(), 0, t.current_, clear, component});
      t.current_ = index_;
    }
    ~Scope() {
      Span& s = tracer_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = tracer_.now();
      tracer_.current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    long index_;
  };

  Scope scope(const char* name, long clear = -1, long component = -1) {
    return Scope(*this, name, clear, component);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start_ns
          << ",\"end\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"clear\":" << s.clear << ",\"component\":" << s.component
          << "}\n";
    }
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  long current_ = -1;
};

// What the untraced child prints per component (deterministic fields).
struct ComponentRecord {
  std::size_t clear = 0, index = 0;
  std::uint64_t seed = 0;
  std::size_t parties = 0, transfers = 0, leaders = 0;
  bool all_triggered = false, no_conforming_underwater = false, audit_ok = false;
  std::uint64_t last_trigger_time = 0, finished_at = 0;
  std::size_t total_transactions = 0, failed_transactions = 0;
  std::size_t total_storage_bytes = 0;
};

// One hashkey kept for re-timing verify_hashkey after the replay.
struct KeySample {
  swap::Hashkey key;
  std::shared_ptr<const swap::SwapSpec> spec;
  std::size_t lock = 0;
  swap::PartyId counterparty = 0;
};

constexpr std::size_t kMaxKeySamples = 400;

struct Totals {
  std::size_t events = 0, invalid = 0, live_offers_max = 0;
  bool streaming_equals_batch = true;
  std::size_t components = 0, arcs = 0, leaders = 0;
  std::size_t hashkey_verifies = 0, sig_verifies = 0, signs = 0;
  std::size_t transactions = 0, failed_transactions = 0, blocks = 0;
  std::size_t storage_bytes = 0, integrity_failures = 0;
  std::uint64_t finished_at_max = 0, last_trigger_max = 0;
  std::size_t recover_journals = 0, recover_blocks = 0, torn_tails = 0;
  serve::IncrementalStats incremental;
  std::vector<KeySample> keys;
  std::vector<ComponentRecord> records;
};

class Replay {
 public:
  explicit Replay(Tracer& tracer) : tracer_(tracer) {}

  Totals& totals() { return totals_; }

  // The service's startup: replay every journal of every prior epoch.
  void recover(const std::string& start_dir) {
    for (const fs::path& run : sorted_subdirs(start_dir)) {
      for (const fs::path& component : sorted_subdirs(run)) {
        for (const fs::path& chain_dir : sorted_subdirs(component)) {
          if (persist::segment_files(chain_dir.string()).empty()) continue;
          const auto span = tracer_.scope("persist.recover");
          const persist::RecoveredLedger r = persist::recover_ledger(
              chain_dir.string(), chain_dir.filename().string());
          ++totals_.recover_journals;
          totals_.recover_blocks += r.report.blocks;
          if (r.report.torn_tail) ++totals_.torn_tails;
        }
      }
    }
  }

  std::optional<serve::OfferEvent> parse(const std::string& line) {
    const auto span = tracer_.scope("serve.parse");
    ++totals_.events;
    return serve::parse_event_line(line);
  }

  void apply(serve::IncrementalClearing& inc, const serve::OfferEvent& ev) {
    {
      const auto span = tracer_.scope("serve.incremental.apply");
      try {
        if (ev.kind == serve::EventKind::kAdd) {
          inc.add(ev.offer);
        } else {
          inc.expire(ev.offer);
        }
      } catch (const std::invalid_argument&) {
        ++totals_.invalid;
      }
    }
    totals_.live_offers_max =
        std::max(totals_.live_offers_max, inc.live_offer_count());
  }

  // One clearing point, as ClearingService::clear_components runs it.
  void clear(serve::IncrementalClearing& inc) {
    const long point = static_cast<long>(clears_);
    const auto span = tracer_.scope("serve.clear", point);
    swap::Decomposition reference;
    {
      // The streaming == batch cross-check is the benchmark's own work.
      const auto d = tracer_.scope("bench.check_decompose", point);
      reference = swap::decompose_offers(inc.live_offers());
    }
    swap::Decomposition decomp;
    {
      const auto c = tracer_.scope("serve.incremental.consume", point);
      decomp = inc.consume();
    }
    if (!(decomp == reference)) totals_.streaming_equals_batch = false;
    run_components(decomp, point);
    ++clears_;
  }

  // `xswap batch`: one decomposition of the whole book.
  void batch(const std::vector<swap::Offer>& book) {
    swap::Decomposition decomp;
    {
      const auto d = tracer_.scope("swap.clearing.decompose", 0);
      decomp = swap::decompose_offers(book);
    }
    run_components(decomp, 0);
  }

 private:
  static std::vector<fs::path> sorted_subdirs(const fs::path& dir) {
    std::vector<fs::path> out;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (entry.is_directory()) out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void run_components(swap::Decomposition& decomp, long point) {
    const std::size_t count = decomp.swaps.size();
    std::vector<std::unique_ptr<swap::SwapEngine>> engines;
    for (std::size_t i = 0; i < count; ++i) {
      const auto span = tracer_.scope("swap.engine.build", point,
                                      static_cast<long>(i));
      swap::EngineOptions options;
      options.seed = options.seed + dispatched_ + i;
      engines.push_back(
          std::make_unique<swap::SwapEngine>(decomp.swaps[i], options));
    }
    // Largest component first, as the service dispatches.
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const auto& sa = decomp.swaps[a];
                       const auto& sb = decomp.swaps[b];
                       if (sa.party_names.size() != sb.party_names.size()) {
                         return sa.party_names.size() > sb.party_names.size();
                       }
                       return sa.arcs.size() > sb.arcs.size();
                     });
    std::vector<swap::SwapReport> reports(count);
    for (const std::size_t i : order) {
      const auto span = tracer_.scope("swap.engine.run", point,
                                      static_cast<long>(i));
      reports[i] = engines[i]->run();
    }
    for (std::size_t i = 0; i < count; ++i) {
      bool ok = false;
      {
        const auto span = tracer_.scope("swap.invariants.check_all", point,
                                        static_cast<long>(i));
        ok = swap::check_all(*engines[i], reports[i]).ok();
      }
      const auto span = tracer_.scope("bench.harvest", point,
                                      static_cast<long>(i));
      harvest(*engines[i], decomp.swaps[i], reports[i], ok,
              static_cast<std::size_t>(point), i);
    }
    dispatched_ += count;
  }

  void harvest(const swap::SwapEngine& engine, const swap::ClearedSwap& cleared,
               const swap::SwapReport& report, bool audit_ok,
               std::size_t point, std::size_t i) {
    ComponentRecord r;
    r.clear = point;
    r.index = i;
    r.seed = swap::EngineOptions{}.seed + dispatched_ + i;
    r.parties = cleared.party_names.size();
    r.transfers = cleared.arcs.size();
    r.leaders = cleared.leaders.size();
    r.all_triggered = report.all_triggered;
    r.no_conforming_underwater = report.no_conforming_underwater;
    r.audit_ok = audit_ok;
    r.last_trigger_time = report.last_trigger_time;
    r.finished_at = report.finished_at;
    r.total_transactions = report.total_transactions;
    r.failed_transactions = report.failed_transactions;
    r.total_storage_bytes = report.total_storage_bytes;
    totals_.records.push_back(r);
    ++totals_.components;
    totals_.arcs += r.transfers;
    totals_.leaders += r.leaders;
    totals_.signs += report.sign_operations;
    totals_.transactions += report.total_transactions;
    totals_.failed_transactions += report.failed_transactions;
    totals_.storage_bytes += report.total_storage_bytes;
    totals_.finished_at_max =
        std::max<std::uint64_t>(totals_.finished_at_max, report.finished_at);
    totals_.last_trigger_max = std::max<std::uint64_t>(
        totals_.last_trigger_max, report.last_trigger_time);

    std::shared_ptr<const swap::SwapSpec> spec;
    for (const std::string& name : engine.chain_names()) {
      const chain::Ledger& ledger = engine.ledger(name);
      totals_.blocks += ledger.blocks().size();
      {
        const auto span = tracer_.scope("chain.verify_integrity");
        if (!ledger.verify_integrity()) ++totals_.integrity_failures;
      }
      for (const chain::ContractId id : ledger.published_contracts()) {
        const auto* sc =
            dynamic_cast<const swap::SwapContract*>(ledger.get_contract(id));
        if (sc == nullptr) continue;
        for (std::size_t k = 0; k < sc->hashlock_count(); ++k) {
          const std::optional<swap::Hashkey>& key = sc->unlocking_key(k);
          if (!key.has_value()) continue;
          ++totals_.hashkey_verifies;
          totals_.sig_verifies += key->sigs.size();
          if (totals_.keys.size() < kMaxKeySamples) {
            if (!spec) spec = std::make_shared<swap::SwapSpec>(engine.spec());
            totals_.keys.push_back(
                KeySample{*key, spec, k, sc->counterparty_vertex()});
          }
        }
      }
    }
  }

  Tracer& tracer_;
  Totals totals_;
  std::size_t clears_ = 0;
  std::size_t dispatched_ = 0;
};

// Re-time verify_hashkey on the sampled keys: per-signature µs, median.
double verify_p50_us(const std::vector<KeySample>& keys, bool* all_ok) {
  std::vector<double> per_sig;
  for (const KeySample& s : keys) {
    const auto start = Clock::now();
    const bool ok = swap::verify_hashkey(
        s.key, s.spec->hashlocks[s.lock], s.spec->digraph, s.counterparty,
        s.spec->leaders[s.lock], s.spec->directory, s.spec->broadcast);
    const double us = ms_since(start) * 1000.0;
    if (!ok) *all_ok = false;
    per_sig.push_back(us / static_cast<double>(s.key.sigs.size()));
  }
  if (per_sig.empty()) return 0.0;
  std::sort(per_sig.begin(), per_sig.end());
  return per_sig[per_sig.size() / 2];
}

struct JournalStats {
  std::size_t journals = 0, bytes = 0, records = 0, segments = 0;
  std::size_t fsyncs = 0;
  double append_ms = 0.0, fsync_ms = 0.0;
};

// Re-append every journal of the start state (prior epochs of the same
// stream shape, written by the service) through a fresh SegmentStore,
// timing appends and group-commit fsyncs separately.
JournalStats reappend_journals(const std::string& journal_dir,
                               const std::string& scratch_dir) {
  JournalStats st;
  if (journal_dir.empty() || !fs::exists(journal_dir)) return st;
  const persist::DurabilityOptions options;
  std::vector<fs::path> dirs;
  for (const auto& entry : fs::recursive_directory_iterator(journal_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".seg") {
      st.bytes += static_cast<std::size_t>(entry.file_size());
      ++st.segments;
      if (std::find(dirs.begin(), dirs.end(), entry.path().parent_path()) ==
          dirs.end()) {
        dirs.push_back(entry.path().parent_path());
      }
    }
  }
  std::sort(dirs.begin(), dirs.end());
  for (const fs::path& dir : dirs) {
    const persist::RecordScan scan = persist::read_records(dir.string());
    ++st.journals;
    st.records += scan.records.size();
    persist::SegmentStore store(
        scratch_dir + "/" + std::to_string(st.journals), options);
    std::size_t pending = 0;
    for (const util::Bytes& record : scan.records) {
      auto start = Clock::now();
      store.append(record);
      st.append_ms += ms_since(start);
      if (++pending == options.group_blocks) {
        start = Clock::now();
        store.flush(true);
        st.fsync_ms += ms_since(start);
        ++st.fsyncs;
        pending = 0;
      }
    }
    const auto start = Clock::now();
    store.flush(true);
    st.fsync_ms += ms_since(start);
    ++st.fsyncs;
  }
  return st;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xswap_trace: %s\nusage: xswap_trace --mode serve|batch "
               "--input FILE --work DIR --spans FILE --summary FILE "
               "[--durable START_DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, input, work, spans_path, summary_path, durable;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--mode") mode = value;
    else if (arg == "--input") input = value;
    else if (arg == "--work") work = value;
    else if (arg == "--spans") spans_path = value;
    else if (arg == "--summary") summary_path = value;
    else if (arg == "--durable") durable = value;
    else usage(("unknown option " + arg).c_str());
  }
  if ((mode != "serve" && mode != "batch") || input.empty() || work.empty() ||
      spans_path.empty() || summary_path.empty()) {
    usage("missing or invalid arguments");
  }

  std::ifstream in(input);
  if (!in) usage(("cannot open " + input).c_str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  fs::create_directories(work);
  Tracer tracer;
  Replay replay(tracer);
  {
    const auto root = tracer.scope("bench.replay");
    if (mode == "serve") {
      if (!durable.empty()) replay.recover(durable);
      serve::IncrementalClearing inc;
      for (const std::string& line : lines) {
        const std::optional<serve::OfferEvent> ev = replay.parse(line);
        if (!ev) continue;
        if (ev->kind == serve::EventKind::kClear) {
          replay.clear(inc);
        } else {
          replay.apply(inc, *ev);
        }
      }
      replay.clear(inc);  // the graceful drain at end of stream
      replay.totals().incremental = inc.stats();
    } else {
      std::vector<swap::Offer> book;
      for (const std::string& line : lines) {
        const std::optional<serve::OfferEvent> ev = replay.parse(line);
        if (ev) book.push_back(ev->offer);
      }
      replay.batch(book);
    }
  }
  Totals& t = replay.totals();
  bool keys_ok = true;
  const double p50_us = verify_p50_us(t.keys, &keys_ok);
  const JournalStats js = reappend_journals(durable, work + "/reappend");
  tracer.write(spans_path);

  std::ofstream out(summary_path);
  out << "{\"events\":" << t.events
      << ",\"invalid\":" << t.invalid
      << ",\"streaming_equals_batch\":"
      << (t.streaming_equals_batch ? "true" : "false")
      << ",\"live_offers_max\":" << t.live_offers_max
      << ",\"components\":" << t.components << ",\"arcs\":" << t.arcs
      << ",\"leaders\":" << t.leaders
      << ",\"hashkey_verifies\":" << t.hashkey_verifies
      << ",\"sig_verifies\":" << t.sig_verifies << ",\"signs\":" << t.signs
      << ",\"verify_p50_us\":" << p50_us
      << ",\"verify_ok\":" << (keys_ok ? "true" : "false")
      << ",\"transactions\":" << t.transactions
      << ",\"failed_transactions\":" << t.failed_transactions
      << ",\"blocks\":" << t.blocks << ",\"storage_bytes\":" << t.storage_bytes
      << ",\"integrity_failures\":" << t.integrity_failures
      << ",\"incremental\":{\"reused\":" << t.incremental.components_reused
      << ",\"recleared\":" << t.incremental.components_recleared
      << ",\"full_recomputes\":" << t.incremental.full_recomputes << "}"
      << ",\"finished_at_max\":" << t.finished_at_max
      << ",\"last_trigger_max\":" << t.last_trigger_max
      << ",\"recover_journals\":" << t.recover_journals
      << ",\"recover_blocks\":" << t.recover_blocks
      << ",\"torn_tails\":" << t.torn_tails
      << ",\"journal\":{\"journals\":" << js.journals
      << ",\"bytes\":" << js.bytes << ",\"records\":" << js.records
      << ",\"segments\":" << js.segments << ",\"fsyncs\":" << js.fsyncs
      << ",\"append_ms\":" << js.append_ms << ",\"fsync_ms\":" << js.fsync_ms
      << "},\"records\":[";
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    const ComponentRecord& r = t.records[i];
    out << (i ? "," : "") << "{\"clear\":" << r.clear << ",\"index\":"
        << r.index << ",\"seed\":" << r.seed << ",\"parties\":" << r.parties
        << ",\"transfers\":" << r.transfers << ",\"leaders\":" << r.leaders
        << ",\"all_triggered\":" << (r.all_triggered ? "true" : "false")
        << ",\"no_conforming_underwater\":"
        << (r.no_conforming_underwater ? "true" : "false")
        << ",\"audit_ok\":" << (r.audit_ok ? "true" : "false")
        << ",\"last_trigger_time\":" << r.last_trigger_time
        << ",\"finished_at\":" << r.finished_at
        << ",\"total_transactions\":" << r.total_transactions
        << ",\"failed_transactions\":" << r.failed_transactions
        << ",\"total_storage_bytes\":" << r.total_storage_bytes << "}";
  }
  out << "]}\n";
  return 0;
}
