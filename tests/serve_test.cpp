// Tests for the serving layer (DESIGN.md §15): wire framing, the JSON
// reader, request routing, the TCP loopback path, and — the load-bearing
// concurrency contract — snapshot-swap determinism: a reader mid-query
// sees the old epoch or the new one, never a mix, proven by the epoch /
// epoch_end pair that brackets every data response.
#include <gtest/gtest.h>

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "spaceweather/dst_index.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

// ---- wire framing -----------------------------------------------------------

TEST(ServeWireTest, FrameRoundTripsThroughTheReader) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame("{\"op\":\"ping\"}"));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "{\"op\":\"ping\"}");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.error());
}

TEST(ServeWireTest, EmptyPayloadFramesAreValid) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame(""));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(ServeWireTest, PartialReadsReassembleByteByByte) {
  const std::string frame = serve::encode_frame("hello serving world");
  serve::FrameReader reader;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(std::string_view(frame).substr(i, 1));
    EXPECT_FALSE(reader.next().has_value()) << "frame completed early at " << i;
  }
  reader.feed(std::string_view(frame).substr(frame.size() - 1, 1));
  const auto payload = reader.next();
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(*payload, "hello serving world");
}

TEST(ServeWireTest, PipelinedFramesPopInOrder) {
  serve::FrameReader reader;
  reader.feed(serve::encode_frame("first") + serve::encode_frame("second") +
              serve::encode_frame("third"));
  EXPECT_EQ(reader.next().value(), "first");
  EXPECT_EQ(reader.next().value(), "second");
  EXPECT_EQ(reader.next().value(), "third");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(ServeWireTest, OversizedLengthPrefixPoisonsTheReader) {
  serve::FrameReader reader;
  // 0xFFFFFFFF little-endian: far beyond kMaxFrameBytes.
  reader.feed(std::string(4, '\xFF'));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
  // Terminal: even a valid frame afterwards stays unread.
  reader.feed(serve::encode_frame("too late"));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
}

TEST(ServeWireTest, GarbageBytesReadAsAnOversizedPrefix) {
  // Pointing a non-protocol peer (say, an HTTP client) at the socket makes
  // the first 4 bytes a length prefix; "GET " decodes to ~0x20544547,
  // which exceeds the ceiling and poisons the reader instead of blocking
  // forever on a phantom half-gigabyte frame.
  serve::FrameReader reader;
  reader.feed("GET / HTTP/1.1\r\n");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.error());
}

TEST(ServeWireTest, EncodeRejectsOversizedPayloads) {
  EXPECT_THROW(
      static_cast<void>(serve::encode_frame(
          std::string(serve::kMaxFrameBytes + 1, 'x'))),
      ValidationError);
}

// ---- JSON reader ------------------------------------------------------------

TEST(ServeJsonTest, ParsesRequestsAndRejectsGarbage) {
  const auto parsed =
      serve::parse_json("{\"op\":\"sat_series\",\"sat\":42,\"f\":-1.5e3}");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->kind, serve::JsonValue::Kind::kObject);
  EXPECT_EQ(parsed->find("op")->text, "sat_series");
  EXPECT_EQ(parsed->find("sat")->integer().value(), 42);
  EXPECT_EQ(parsed->find("f")->number().value(), -1500.0);
  EXPECT_EQ(parsed->find("missing"), nullptr);

  EXPECT_FALSE(serve::parse_json("not json").has_value());
  EXPECT_FALSE(serve::parse_json("{\"op\":}").has_value());
  EXPECT_FALSE(serve::parse_json("{} trailing").has_value());
  EXPECT_FALSE(serve::parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(serve::parse_json("").has_value());
}

TEST(ServeJsonTest, EscapeRoundTripsThroughTheParser) {
  // Every control byte 0x00-0x1F (built byte by byte, so NUL is included),
  // DEL, and multi-byte UTF-8 sequences ("°" and "€").
  std::string controls;
  for (int c = 0x00; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  const std::vector<std::string> inputs{
      "quote \" slash \\ tab \t newline \n ctrl \x01 end",
      controls,
      "del \x7f end",
      "utf-8 \xc2\xb0 and \xe2\x82\xac end",
  };
  for (const std::string& raw : inputs) {
    const std::string escaped = serve::escape_json(raw);
    const auto parsed = serve::parse_json("\"" + escaped + "\"");
    ASSERT_TRUE(parsed.has_value()) << escaped;
    EXPECT_EQ(parsed->text, raw) << escaped;
  }
}

TEST(ServeJsonTest, NestingDepthIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(serve::parse_json(nested(serve::kMaxJsonDepth)).has_value());
  EXPECT_FALSE(
      serve::parse_json(nested(serve::kMaxJsonDepth + 1)).has_value());
  // Objects count toward the same bound as arrays.
  std::string objects;
  for (int i = 0; i <= serve::kMaxJsonDepth; ++i) objects += "{\"a\":";
  objects += "0" + std::string(serve::kMaxJsonDepth + 1, '}');
  EXPECT_FALSE(serve::parse_json(objects).has_value());
  // Depth is nesting, not count: many siblings at depth 1 are fine.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += "[],";
  siblings += "[]]";
  EXPECT_TRUE(serve::parse_json(siblings).has_value());
}

// ---- service fixtures -------------------------------------------------------

tle::Tle make_tle(int catalog_number, double epoch_offset_days) {
  tle::Tle record;
  record.catalog_number = catalog_number;
  record.international_designator = "20001A";
  record.epoch_jd =
      timeutil::to_julian(timeutil::make_datetime(2024, 5, 1)) +
      epoch_offset_days;
  record.bstar = 1.4e-4;
  record.inclination_deg = 53.05;
  record.raan_deg = 120.5;
  record.eccentricity = 0.0002;
  record.arg_perigee_deg = 90.0;
  record.mean_anomaly_deg = 45.0;
  record.mean_motion_revday = 15.05;
  record.element_set_number = 999;
  record.rev_number = 12345;
  return record;
}

/// An in-memory pipeline: 12 days of Dst with one clear storm and a single
/// satellite whose track holds exactly `samples` benign element sets.
core::CosmicDance make_pipeline(std::size_t samples) {
  std::vector<double> values;
  for (int h = 0; h < 12 * 24; ++h) {
    const bool storm = h >= 100 && h < 110;
    values.push_back(storm ? -80.0 : -12.0);
  }
  spaceweather::DstIndex dst(timeutil::make_datetime(2024, 5, 1),
                             std::move(values));
  tle::TleCatalog catalog;
  for (std::size_t i = 0; i < samples; ++i) {
    catalog.add(make_tle(501, 0.5 * static_cast<double>(i)));
  }
  core::PipelineConfig config;
  config.num_threads = 1;
  return core::CosmicDance(std::move(dst), std::move(catalog), config);
}

/// Parse a response and return the object (asserts well-formed JSON — every
/// service response must parse, including errors).
serve::JsonValue response_json(const std::string& response) {
  const auto parsed = serve::parse_json(response);
  EXPECT_TRUE(parsed.has_value()) << "unparseable response: " << response;
  return parsed.value_or(serve::JsonValue{});
}

long integer_field(const serve::JsonValue& object, const std::string& key) {
  const serve::JsonValue* value = object.find(key);
  if (value == nullptr) return -1;
  return value->integer().value_or(-1);
}

bool ok_field(const serve::JsonValue& object) {
  const serve::JsonValue* value = object.find("ok");
  return value != nullptr && value->kind == serve::JsonValue::Kind::kBool &&
         value->boolean;
}

// ---- request routing --------------------------------------------------------

TEST(ServeServiceTest, RoutesEveryOpAndCountsRequests) {
  obs::Metrics metrics;
  serve::Service service(make_pipeline(10), [] { return make_pipeline(10); },
                         &metrics);

  for (const char* op : {"ping", "stats", "sat_series", "storm_summary",
                         "envelope_cdf", "quality_report", "metrics"}) {
    const auto result =
        service.handle(std::string("{\"op\":\"") + op + "\"}");
    EXPECT_FALSE(result.shutdown);
    const serve::JsonValue body = response_json(result.response);
    EXPECT_TRUE(ok_field(body)) << op << " -> " << result.response;
  }

  const serve::JsonValue stats =
      response_json(service.handle("{\"op\":\"stats\"}").response);
  EXPECT_EQ(integer_field(stats, "satellites"), 1);
  EXPECT_EQ(integer_field(stats, "tles"), 10);
  EXPECT_EQ(integer_field(stats, "epoch"), 1);
  EXPECT_EQ(integer_field(stats, "epoch_end"), 1);

  const serve::JsonValue series =
      response_json(service.handle("{\"op\":\"sat_series\"}").response);
  EXPECT_EQ(integer_field(series, "sat"), 501);
  EXPECT_EQ(integer_field(series, "samples"), 10);

  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.requests"), 9u);
  EXPECT_EQ(report.counters.count("serve.errors"), 1u);
  EXPECT_EQ(report.counters.at("serve.errors"), 0u);
}

TEST(ServeServiceTest, BadRequestsGetErrorResponsesNotCrashes) {
  obs::Metrics metrics;
  serve::Service service(make_pipeline(5), [] { return make_pipeline(5); },
                         &metrics);

  const std::string bad_requests[] = {
      "not json at all",
      "",
      "[1,2,3]",
      "{\"no_op\":true}",
      "{\"op\":42}",
      "{\"op\":\"no_such_op\"}",
      "{\"op\":\"sat_series\",\"sat\":99999}",
      "{\"op\":\"sat_series\",\"sat\":\"x\"}",
      "{\"op\":\"sat_series\",\"max_samples\":1}",
      "{\"op\":\"envelope_cdf\",\"percentile\":150}",
      "{\"op\":\"envelope_cdf\",\"points\":0}",
      "{\"op\":\"storm_summary\",\"threshold\":\"deep\"}",
      // 64 KiB of '[': past kMaxJsonDepth, so rejected before the
      // recursive reader can exhaust the handling thread's stack.
      std::string(65536, '['),
  };
  for (const std::string& request : bad_requests) {
    const auto result = service.handle(request);
    EXPECT_FALSE(result.shutdown);
    const serve::JsonValue body = response_json(result.response);
    EXPECT_FALSE(ok_field(body)) << request << " -> " << result.response;
    EXPECT_NE(body.find("error"), nullptr);
  }
  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.errors"),
            static_cast<std::uint64_t>(std::size(bad_requests)));
}

TEST(ServeServiceTest, SatSeriesThinsWithMaxSamples) {
  serve::Service service(make_pipeline(40), {});
  const serve::JsonValue thinned = response_json(
      service.handle("{\"op\":\"sat_series\",\"max_samples\":8}").response);
  EXPECT_TRUE(ok_field(thinned));
  EXPECT_LE(integer_field(thinned, "samples"), 9);
  EXPECT_GE(integer_field(thinned, "samples"), 8);
  EXPECT_EQ(integer_field(thinned, "track_samples"), 40);
  // The thinned series still ends at the track's last epoch.
  const serve::JsonValue* epochs = thinned.find("epoch_jd");
  ASSERT_NE(epochs, nullptr);
  const serve::JsonValue full = response_json(
      service.handle("{\"op\":\"sat_series\"}").response);
  EXPECT_EQ(epochs->items.back().text,
            full.find("epoch_jd")->items.back().text);
}

TEST(ServeServiceTest, ReloadSwapsTheEpochAndFailuresKeepTheOldOne) {
  obs::Metrics metrics;
  std::atomic<bool> fail{false};
  serve::Service service(make_pipeline(10),
                         [&]() -> core::CosmicDance {
                           if (fail.load()) throw ValidationError("boom");
                           return make_pipeline(10);
                         },
                         &metrics);

  const serve::JsonValue reloaded =
      response_json(service.handle("{\"op\":\"reload\"}").response);
  EXPECT_TRUE(ok_field(reloaded));
  EXPECT_EQ(integer_field(reloaded, "epoch"), 2);

  fail.store(true);
  const serve::JsonValue failed =
      response_json(service.handle("{\"op\":\"reload\"}").response);
  EXPECT_FALSE(ok_field(failed));
  // The old snapshot keeps serving.
  const serve::JsonValue ping =
      response_json(service.handle("{\"op\":\"ping\"}").response);
  EXPECT_TRUE(ok_field(ping));
  EXPECT_EQ(integer_field(ping, "epoch"), 2);

  const obs::MetricsReport report = metrics.snapshot();
  EXPECT_EQ(report.counters.at("serve.reloads"), 1u);
  EXPECT_EQ(report.counters.at("serve.errors"), 1u);
}

TEST(ServeServiceTest, ShutdownOpRequestsShutdown) {
  serve::Service service(make_pipeline(5), {});
  const auto result = service.handle("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(result.shutdown);
  EXPECT_TRUE(ok_field(response_json(result.response)));
  // Reload without a rebuild callback is an error, not a crash.
  const auto reload = service.handle("{\"op\":\"reload\"}");
  EXPECT_FALSE(ok_field(response_json(reload.response)));
}

// ---- snapshot-swap determinism ----------------------------------------------

TEST(ServeSwapTest, ReadersSeeWholeEpochsNeverAMix) {
  // Epoch 1 serves the 10-sample catalog; every reload alternates to 20
  // and back.  Concurrent readers hammer sat_series while the main thread
  // swaps; every response must be internally consistent — epoch==epoch_end
  // and the sample count that belongs to that epoch — even when the swap
  // lands mid-query.
  std::atomic<int> rebuilds{0};
  serve::Service service(make_pipeline(10), [&] {
    const int n = rebuilds.fetch_add(1) + 1;
    return make_pipeline(n % 2 == 1 ? 20 : 10);
  });

  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 150;
  std::atomic<int> inconsistencies{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) {
      }
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const auto result = service.handle("{\"op\":\"sat_series\"}");
        const auto parsed = serve::parse_json(result.response);
        if (!parsed.has_value()) {
          inconsistencies.fetch_add(1);
          continue;
        }
        const long epoch = integer_field(*parsed, "epoch");
        const long epoch_end = integer_field(*parsed, "epoch_end");
        const long samples = integer_field(*parsed, "samples");
        const long expected = epoch % 2 == 1 ? 10 : 20;
        if (!ok_field(*parsed) || epoch != epoch_end ||
            samples != expected) {
          inconsistencies.fetch_add(1);
        }
      }
    });
  }
  start.store(true);
  for (int swap = 0; swap < 20; ++swap) {
    service.reload();
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GE(service.snapshot()->epoch, 21u);
}

// ---- TCP loopback -----------------------------------------------------------

TEST(ServeServerTest, LoopbackRoundTripsEveryOp) {
  serve::Service service(make_pipeline(10), [] { return make_pipeline(10); });
  serve::Server server(service, "127.0.0.1", 0);
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client("127.0.0.1", server.port());
  for (const char* op : {"ping", "stats", "sat_series", "storm_summary",
                         "envelope_cdf", "quality_report", "reload"}) {
    const std::string response =
        client.request(std::string("{\"op\":\"") + op + "\"}");
    EXPECT_TRUE(ok_field(response_json(response))) << op << " -> " << response;
  }

  // A garbage payload is an error response, not a dropped connection: the
  // same client keeps working afterwards.
  EXPECT_FALSE(ok_field(response_json(client.request("garbage"))));
  EXPECT_TRUE(ok_field(response_json(client.request("{\"op\":\"ping\"}"))));

  server.shutdown();
}

TEST(ServeServerTest, NestingFloodGetsAnErrorFrameAndTheDaemonKeepsServing) {
  obs::Metrics metrics;
  serve::Service service(make_pipeline(5), {}, &metrics);
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  serve::Client client("127.0.0.1", server.port());
  const serve::JsonValue flood =
      response_json(client.request(std::string(65536, '[')));
  EXPECT_FALSE(ok_field(flood));
  EXPECT_NE(flood.find("error"), nullptr);
  // Same connection, then a fresh one: both still answered.
  EXPECT_TRUE(ok_field(response_json(client.request("{\"op\":\"ping\"}"))));
  serve::Client second("127.0.0.1", server.port());
  EXPECT_TRUE(ok_field(response_json(second.request("{\"op\":\"ping\"}"))));
  EXPECT_EQ(metrics.snapshot().counters.at("serve.errors"), 1u);

  server.shutdown();
}

TEST(ServeServerTest, FramingViolationGetsOneErrorFrameThenClose) {
  serve::Service service(make_pipeline(5), {});
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  // Raw socket: speak garbage at the framing layer (huge length prefix).
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* addrs = nullptr;
  ASSERT_EQ(::getaddrinfo("127.0.0.1",
                          std::to_string(server.port()).c_str(), &hints,
                          &addrs),
            0);
  const int fd = ::socket(addrs->ai_family, addrs->ai_socktype,
                          addrs->ai_protocol);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, addrs->ai_addr, addrs->ai_addrlen), 0);
  ::freeaddrinfo(addrs);

  const std::string garbage(8, '\xFF');
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  // The server answers with exactly one framed error payload, then closes.
  serve::FrameReader reader;
  char buffer[1024];
  std::optional<std::string> payload;
  bool closed = false;
  while (!payload.has_value() || !closed) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      closed = true;
      break;
    }
    reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    if (!payload.has_value()) payload = reader.next();
  }
  ::close(fd);
  ASSERT_TRUE(payload.has_value()) << "no error frame before close";
  const serve::JsonValue body = response_json(*payload);
  EXPECT_FALSE(ok_field(body));
  EXPECT_TRUE(closed);

  server.shutdown();
}

TEST(ServeServerTest, ShutdownOpUnblocksWaitAndJoinsCleanly) {
  serve::Service service(make_pipeline(5), {});
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  std::thread waiter([&] { server.wait(); });
  {
    serve::Client client("127.0.0.1", server.port());
    EXPECT_TRUE(
        ok_field(response_json(client.request("{\"op\":\"shutdown\"}"))));
  }
  waiter.join();  // wait() must return once the shutdown op lands
  server.shutdown();
}

TEST(ServeServerTest, ConcurrentClientsOverTcpStayConsistent) {
  std::atomic<int> rebuilds{0};
  serve::Service service(make_pipeline(10), [&] {
    const int n = rebuilds.fetch_add(1) + 1;
    return make_pipeline(n % 2 == 1 ? 20 : 10);
  });
  serve::Server server(service, "127.0.0.1", 0);
  server.start();

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 50;
  std::atomic<int> inconsistencies{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::Client client("127.0.0.1", server.port());
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const auto parsed =
            serve::parse_json(client.request("{\"op\":\"sat_series\"}"));
        if (!parsed.has_value()) {
          inconsistencies.fetch_add(1);
          continue;
        }
        const long epoch = integer_field(*parsed, "epoch");
        const long samples = integer_field(*parsed, "samples");
        if (!ok_field(*parsed) ||
            epoch != integer_field(*parsed, "epoch_end") ||
            samples != (epoch % 2 == 1 ? 10 : 20)) {
          inconsistencies.fetch_add(1);
        }
      }
    });
  }
  serve::Client reloader("127.0.0.1", server.port());
  for (int swap = 0; swap < 10; ++swap) {
    EXPECT_TRUE(
        ok_field(response_json(reloader.request("{\"op\":\"reload\"}"))));
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  server.shutdown();
}

}  // namespace
}  // namespace cosmicdance