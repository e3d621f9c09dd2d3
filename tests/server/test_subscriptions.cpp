// Standing continuous-skyline subscriptions (ISSUE 9): concurrent
// subscribers racing apply_batch at the engine level, the subscribe /
// delta / unsubscribe wire protocol over real loopback TCP, and the drain
// path killing a live subscription with a typed cancelled line. The engine
// tests are the TSan targets — scripts/ci_sanitize.sh runs this suite under
// -fsanitize=thread; every replica assertion is a bitwise one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/server/client.hpp"
#include "src/server/server.hpp"
#include "src/server/session.hpp"
#include "src/service/query_engine.hpp"

namespace mrsky {
namespace {

data::PointSet workload(std::size_t n = 200, std::size_t dim = 3, std::uint64_t seed = 99) {
  return data::generate(data::Distribution::kAnticorrelated, n, dim, seed);
}

/// The exact bits of a skyline, in output order.
struct SkylineBits {
  std::vector<data::PointId> ids;
  std::vector<std::uint64_t> coord_bits;

  SkylineBits() = default;
  explicit SkylineBits(const data::PointSet& sky) {
    for (std::size_t i = 0; i < sky.size(); ++i) {
      ids.push_back(sky.id(i));
      for (double c : sky.point(i)) coord_bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
  }
  bool operator==(const SkylineBits&) const = default;
};

/// Subscriber-side replica: ascending-id map, so skyline() is canonical.
class Replica {
 public:
  Replica() = default;
  explicit Replica(const data::PointSet& base) { reset(base); }

  void reset(const data::PointSet& base) {
    points_.clear();
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto p = base.point(i);
      points_.emplace(base.id(i), std::vector<double>(p.begin(), p.end()));
    }
  }

  void apply(const service::StreamDelta& delta) {
    for (data::PointId id : delta.left) points_.erase(id);
    for (std::size_t i = 0; i < delta.entered.size(); ++i) {
      const auto p = delta.entered.point(i);
      points_.emplace(delta.entered.id(i), std::vector<double>(p.begin(), p.end()));
    }
  }

  [[nodiscard]] SkylineBits bits(std::size_t dim) const {
    data::PointSet ps(dim);
    for (const auto& [id, coords] : points_) ps.push_back(coords, id);
    return SkylineBits(ps);
  }

 private:
  std::map<data::PointId, std::vector<double>> points_;
};

/// A deterministic mutation stream for the concurrency tests.
std::vector<service::MutationBatch> make_schedule(std::size_t ticks, std::size_t dim,
                                                  std::size_t initial_n, std::uint64_t seed) {
  common::Rng rng(seed);
  const data::PointSet pool =
      data::generate(data::Distribution::kIndependent, ticks * 4, dim, seed + 1);
  std::vector<service::MutationBatch> schedule(ticks);
  std::size_t next_row = 0;
  std::size_t assigned = initial_n;
  for (std::size_t t = 0; t < ticks; ++t) {
    service::MutationBatch& batch = schedule[t];
    batch.inserts = data::PointSet(dim);
    const std::size_t inserts = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < inserts; ++i, ++next_row) {
      batch.inserts.push_back(pool.point(next_row), pool.id(next_row));
      batch.ttl_ticks.push_back(rng.uniform() < 0.25
                                    ? static_cast<std::int64_t>(1 + rng.uniform_index(4))
                                    : 0);
    }
    for (std::size_t i = 0; i < rng.uniform_index(3); ++i) {
      batch.deletes.push_back(static_cast<data::PointId>(rng.uniform_index(assigned)));
    }
    assigned += inserts;
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// Engine level (TSan targets)
// ---------------------------------------------------------------------------

TEST(Subscriptions, ConcurrentSubscribersReplayEveryVersionBitwise) {
  const std::size_t kDim = 3;
  const std::size_t kTicks = 60;
  const std::size_t kSubscribers = 4;
  service::QueryEngine engine(workload(150, kDim), {});
  const auto schedule = make_schedule(kTicks, kDim, 150, 0xabcdu);

  // The writer records the published skyline of every version; subscribers
  // check their replicas against this ledger. Versions start at 1.
  std::vector<SkylineBits> ledger(kTicks + 1);
  std::atomic<std::uint64_t> final_version{0};

  std::thread writer([&] {
    for (const auto& batch : schedule) {
      const service::ApplyResult r = engine.apply_batch(batch);
      ledger[r.delta.version] = SkylineBits(*r.snapshot->full_skyline);
      final_version.store(r.delta.version, std::memory_order_release);
    }
  });

  // Subscribers record every (version, replica-bits) pair they produce; the
  // ledger comparison happens on the main thread AFTER both sides join, so
  // the test itself never races the writer's ledger stores.
  std::vector<std::thread> subscribers;
  std::vector<std::string> failures(kSubscribers);
  std::vector<std::vector<std::pair<std::uint64_t, SkylineBits>>> seen(kSubscribers);
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    subscribers.emplace_back([&, s] {
      // Staggered registration: later subscribers join mid-stream, so their
      // base skyline already covers a prefix of the versions.
      std::this_thread::sleep_for(std::chrono::milliseconds(s * 3));
      const service::StreamSubscriptionPtr sub = engine.subscribe();
      Replica replica(sub->base_skyline());
      std::uint64_t version = sub->base_version();
      while (version < kTicks) {
        const std::optional<service::StreamDelta> delta = sub->next(/*timeout_ms=*/2000);
        if (!delta.has_value()) break;  // writer finished and queue drained
        if (delta->version != version + 1) {
          failures[s] = "version gap: " + std::to_string(version) + " -> " +
                        std::to_string(delta->version);
          return;
        }
        version = delta->version;
        replica.apply(*delta);
        seen[s].emplace_back(version, replica.bits(kDim));
      }
      if (version != kTicks) {
        failures[s] = "stopped at version " + std::to_string(version) + " of " +
                      std::to_string(kTicks);
        return;
      }
      if (sub->lagged()) failures[s] = "subscription lagged";
    });
  }

  writer.join();
  for (auto& t : subscribers) t.join();
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    EXPECT_EQ(failures[s], "") << "subscriber " << s;
    for (const auto& [v, bits] : seen[s]) {
      EXPECT_TRUE(bits == ledger[v])
          << "subscriber " << s << " replica differs from published skyline at version " << v;
    }
  }
  EXPECT_EQ(final_version.load(), kTicks);
}

TEST(Subscriptions, EngineShutdownClosesSubscriptionAfterDrainingBacklog) {
  auto engine = std::make_unique<service::QueryEngine>(workload(80), service::QueryEngineOptions{});
  const service::StreamSubscriptionPtr sub = engine->subscribe();
  service::MutationBatch batch;
  batch.deletes.push_back(0);
  const std::uint64_t v = engine->apply_batch(batch).delta.version;
  engine.reset();  // destructor closes every live subscription

  EXPECT_TRUE(sub->closed());
  // The backlog published before shutdown is still poppable...
  const std::optional<service::StreamDelta> queued = sub->next(/*timeout_ms=*/0);
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(queued->version, v);
  // ...and after it drains, next() reports end-of-stream instead of blocking.
  EXPECT_FALSE(sub->next(/*timeout_ms=*/-1).has_value());
}

TEST(Subscriptions, PlainInsertBeforeFirstStreamingWriteIsDelivered) {
  // insert_batch and apply_batch publish through one write path, so the
  // version a plain insert creates reaches subscribers like any other.
  const std::size_t kDim = 3;
  service::QueryEngine engine(workload(120, kDim), {});
  const service::StreamSubscriptionPtr sub = engine.subscribe();
  ASSERT_EQ(sub->base_version(), 0u);
  Replica replica(sub->base_skyline());

  std::map<std::uint64_t, SkylineBits> published;
  const std::uint64_t v1 = engine.insert_batch(workload(20, kDim, 7));
  published[v1] = SkylineBits(*engine.snapshot()->full_skyline);
  service::MutationBatch batch;
  batch.inserts = workload(5, kDim, 8);
  batch.deletes = {0, 1, 2};
  const service::ApplyResult r = engine.apply_batch(batch);
  published[r.delta.version] = SkylineBits(*r.snapshot->full_skyline);
  ASSERT_EQ(v1, 1u);
  ASSERT_EQ(r.delta.version, 2u);

  for (std::uint64_t version = 1; version <= 2; ++version) {
    const std::optional<service::StreamDelta> delta = sub->next(/*timeout_ms=*/0);
    ASSERT_TRUE(delta.has_value()) << "version " << version << " was not delivered";
    EXPECT_EQ(delta->version, version);
    replica.apply(*delta);
    EXPECT_TRUE(replica.bits(kDim) == published[version]) << "version " << version;
  }
  EXPECT_FALSE(sub->next(/*timeout_ms=*/0).has_value());
  EXPECT_FALSE(sub->lagged());
}

TEST(Subscriptions, SubscriberRacingWritersNeverSeesAGap) {
  // Gapless-handoff hammer: subscribers register WHILE a writer publishes.
  // Whatever base version a subscriber lands on, the next delta it pops must
  // be base+1 — never a skipped or repeated version.
  const std::size_t kDim = 2;
  service::QueryEngine engine(workload(60, kDim), {});
  const auto schedule = make_schedule(/*ticks=*/80, kDim, 60, 0xfeedu);

  std::atomic<bool> done{false};
  std::vector<std::string> failures(6);
  std::vector<std::thread> subscribers;
  for (std::size_t s = 0; s < failures.size(); ++s) {
    subscribers.emplace_back([&, s] {
      while (!done.load(std::memory_order_acquire)) {
        const service::StreamSubscriptionPtr sub = engine.subscribe();
        std::uint64_t version = sub->base_version();
        for (int i = 0; i < 4; ++i) {
          const std::optional<service::StreamDelta> delta = sub->next(/*timeout_ms=*/50);
          if (!delta.has_value()) break;
          if (delta->version != version + 1) {
            failures[s] = "gap after base " + std::to_string(version) + ": got " +
                          std::to_string(delta->version);
            return;
          }
          version = delta->version;
        }
        sub->close();
      }
    });
  }
  for (const auto& batch : schedule) (void)engine.apply_batch(batch);
  done.store(true, std::memory_order_release);
  for (auto& t : subscribers) t.join();
  for (std::size_t s = 0; s < failures.size(); ++s) {
    EXPECT_EQ(failures[s], "") << "subscriber " << s;
  }
}

// ---------------------------------------------------------------------------
// Wire level (loopback TCP)
// ---------------------------------------------------------------------------

/// Parses one `[id,c,...]` point-array JSON document into a PointSet row.
void parse_points_into(const common::JsonValue& arr, data::PointSet& out) {
  for (const common::JsonValue& item : arr.as_array()) {
    const auto& row = item.as_array();
    std::vector<double> coords;
    for (std::size_t i = 1; i < row.size(); ++i) coords.push_back(row[i].as_number());
    out.push_back(coords, static_cast<data::PointId>(row[0].as_number()));
  }
}

TEST(Subscriptions, WireProtocolRoundTripReplaysToPublishedSkyline) {
  const std::size_t kDim = 3;
  service::QueryEngine engine(workload(120, kDim), {});
  server::ServerOptions options;
  server::SkylineServer server(engine, options);
  server.start();

  server::LineClient subscriber;
  subscriber.connect("127.0.0.1", server.port());
  ASSERT_TRUE(subscriber.recv_line().has_value());  // greeting
  const std::optional<std::string> subscribed = subscriber.request("subscribe");
  ASSERT_TRUE(subscribed.has_value());
  const common::JsonValue base_doc = common::JsonValue::parse(*subscribed);
  ASSERT_NE(base_doc.find("skyline"), nullptr) << *subscribed;
  EXPECT_EQ(base_doc.find("event")->as_string(), "subscribed");
  const auto base_version = static_cast<std::uint64_t>(base_doc.find("version")->as_number());

  data::PointSet base_skyline(kDim);
  parse_points_into(*base_doc.find("skyline"), base_skyline);
  Replica replica(base_skyline);

  // A second session mutates the stream: TTL'd inserts and deletes.
  server::LineClient writer;
  writer.connect("127.0.0.1", server.port());
  ASSERT_TRUE(writer.recv_line().has_value());
  const std::size_t kTicks = 8;
  for (std::size_t t = 0; t < kTicks; ++t) {
    const std::string insert =
        R"({"insert":[[0.)" + std::to_string(2 + t) + R"(,0.5,0.5]],"ttl_ticks":3})";
    const std::optional<std::string> ins = writer.request(insert);
    ASSERT_TRUE(ins.has_value());
    EXPECT_EQ(ins->rfind("{\"ok\":true", 0), 0u) << *ins;
    const std::optional<std::string> del =
        writer.request(R"({"delete":[)" + std::to_string(t * 7) + "]}");
    ASSERT_TRUE(del.has_value());
    EXPECT_EQ(del->rfind("{\"ok\":true", 0), 0u) << *del;
  }

  // Drain delta lines until the last written version arrives, replaying each
  // onto the replica. Every tick (insert or delete request) publishes one.
  subscriber.set_recv_timeout_ms(2000);
  std::uint64_t version = base_version;
  const std::uint64_t last = base_version + 2 * kTicks;
  while (version < last) {
    const std::optional<std::string> line = subscriber.recv_line();
    ASSERT_TRUE(line.has_value()) << "expected delta for version " << version + 1;
    const common::JsonValue doc = common::JsonValue::parse(*line);
    ASSERT_NE(doc.find("event"), nullptr) << *line;
    ASSERT_EQ(doc.find("event")->as_string(), "delta") << *line;
    EXPECT_EQ(static_cast<std::uint64_t>(doc.find("version")->as_number()), version + 1);
    ++version;

    service::StreamDelta delta;
    parse_points_into(*doc.find("entered"), delta.entered);
    for (const common::JsonValue& id : doc.find("left")->as_array()) {
      delta.left.push_back(static_cast<data::PointId>(id.as_number()));
    }
    replica.apply(delta);
  }

  // %.17g round-trips doubles bit-exactly, so even the TCP replica is
  // bitwise-identical to the engine's published skyline.
  EXPECT_TRUE(replica.bits(kDim) == SkylineBits(*engine.snapshot()->full_skyline));

  // Interleaved requests still work while subscribed...
  const std::optional<std::string> stats = subscriber.request("stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rfind("{\"ok\":true", 0), 0u) << *stats;

  // ...and unsubscribe stops the pushes: the next response after the ack is
  // the answer to a regular request, not a stray delta.
  const std::optional<std::string> unsub = subscriber.request("unsubscribe");
  ASSERT_TRUE(unsub.has_value());
  EXPECT_NE(unsub->find("\"unsubscribed\""), std::string::npos) << *unsub;
  ASSERT_TRUE(writer.request(R"({"delete":[1]})").has_value());
  const std::optional<std::string> after = subscriber.request("metrics");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(after->find("\"deltas_sent\""), std::string::npos) << *after;

  ASSERT_TRUE(writer.request("quit").has_value());
  ASSERT_TRUE(subscriber.request("quit").has_value());
  server.stop();
}

TEST(Subscriptions, ServerDrainCancelsSubscriptionWithTypedLine) {
  service::QueryEngine engine(workload(100), {});
  server::ServerOptions options;
  options.drain_grace_ms = 300;
  server::SkylineServer server(engine, options);
  server.start();

  server::LineClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.recv_line().has_value());
  const std::optional<std::string> subscribed = client.request("subscribe");
  ASSERT_TRUE(subscribed.has_value());
  EXPECT_NE(subscribed->find("\"subscribed\""), std::string::npos) << *subscribed;

  // Kill the server while the subscription is standing. The connection must
  // end with the typed cancelled line — not a silent EOF.
  std::thread stopper([&] { server.stop(); });
  client.set_recv_timeout_ms(3000);
  std::optional<std::string> line;
  std::string last;
  while ((line = client.recv_line()).has_value()) last = *line;
  stopper.join();

  EXPECT_NE(last.find("\"cancelled\":true"), std::string::npos) << last;
  EXPECT_NE(last.find("\"reason\":\"cancelled\""), std::string::npos) << last;
  EXPECT_GE(server.stats().drain_cancelled, 1u);
}

TEST(Subscriptions, SessionRejectsDoubleSubscribe) {
  service::QueryEngine engine(workload(50), {});
  server::Session session(1, engine, "");
  bool quit = false;
  const std::string first = session.handle_line("subscribe", quit);
  EXPECT_EQ(first.rfind("{\"ok\":true", 0), 0u) << first;
  const std::string second = session.handle_line("subscribe", quit);
  EXPECT_EQ(second.rfind("{\"ok\":false", 0), 0u) << second;
  const std::string unsub = session.handle_line("unsubscribe", quit);
  EXPECT_NE(unsub.find("\"unsubscribed\""), std::string::npos) << unsub;
  // Unsubscribe is idempotent, and re-subscribing afterwards works.
  EXPECT_EQ(session.handle_line("unsubscribe", quit).rfind("{\"ok\":true", 0), 0u);
  EXPECT_EQ(session.handle_line("subscribe", quit).rfind("{\"ok\":true", 0), 0u);
}

}  // namespace
}  // namespace mrsky
