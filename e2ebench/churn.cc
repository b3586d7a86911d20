#include "churn.h"

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "daemon/client.h"
#include "daemon/daemon.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace e2ebench {

namespace {

using volcanoml::DaemonClient;
using volcanoml::SessionState;

/// The clients' fixed status-poll interval.
constexpr int kPollMs = 2;

/// Samples one client thread collected; merged after the fan-in.
struct ClientLog {
  size_t sessions_attempted = 0;
  size_t sessions_done = 0;
  size_t sessions_failed = 0;
  size_t requests = 0;
  size_t request_failures = 0;
  uint64_t evaluations = 0;
  std::vector<double> create_s, evict_s, query_s, fetch_s, turnaround_s;
  size_t evictions_seen = 0;
  size_t restores_seen = 0;
  std::vector<std::pair<size_t, SessionResult>> results;
};

/// Times one request as a client span and a latency sample.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint64_t owner,
           std::vector<double>* samples, ClientLog* log, Fn&& fn) {
  const double start = NowSeconds();
  auto result = fn();
  const double end = NowSeconds();
  samples->push_back(end - start);
  tracer->Add(name, start, end, -1, owner);
  ++log->requests;
  if (!result.ok()) ++log->request_failures;
  return result;
}

/// One closed-loop cycle: create, evict, poll until done, fetch. Returns
/// false when any request or the session failed.
bool RunSession(const ChurnSetup& setup, const DaemonClient& client,
                size_t client_index, size_t config_index, Tracer* tracer,
                ClientLog* log) {
  const ChurnConfig& cc = setup.configs[config_index];
  volcanoml::CreateSessionRequest create;
  create.tenant = "client-" + std::to_string(client_index);
  create.dataset_name = setup.tasks[cc.task].name;
  create.csv = setup.tasks[cc.task].train_csv;
  create.config = cc.config;
  ++log->sessions_attempted;
  const double started = NowSeconds();
  auto created = client.CreateSession(create);
  const double created_at = NowSeconds();
  log->create_s.push_back(created_at - started);
  ++log->requests;
  if (!created.ok()) {
    ++log->request_failures;
    return false;
  }
  const uint64_t id = created.value();
  tracer->Add("ipc.create", started, created_at, -1, id);
  auto evicted = Timed(tracer, "ipc.evict", id, &log->evict_s, log,
                       [&] { return client.EvictSession(id); });
  if (!evicted.ok()) return false;
  SessionState last = evicted.value() ? SessionState::kEvicted
                                      : SessionState::kResident;
  if (evicted.value()) ++log->evictions_seen;
  volcanoml::QuerySessionRequest query;
  query.session_id = id;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
    auto reply = Timed(tracer, "ipc.query", id, &log->query_s, log,
                       [&] { return client.QuerySession(query); });
    if (!reply.ok()) return false;
    const volcanoml::SessionStatus& status = reply.value().status;
    if (status.state == SessionState::kFailed) return false;
    if (status.state != last) {
      if (status.state == SessionState::kEvicted) ++log->evictions_seen;
      if (last == SessionState::kEvicted) ++log->restores_seen;
      last = status.state;
    }
    if (status.done) break;
  }
  log->turnaround_s.push_back(NowSeconds() - started);
  query.include_trajectory = true;
  query.include_assignment = true;
  auto fetched = Timed(tracer, "ipc.fetch", id, &log->fetch_s, log,
                       [&] { return client.QuerySession(query); });
  if (!fetched.ok()) return false;
  SessionResult result;
  result.best_utility = fetched.value().status.best_utility;
  result.trajectory = fetched.value().trajectory;
  result.best_assignment = fetched.value().best_assignment;
  result.evaluations = fetched.value().status.telemetry.num_evaluations;
  log->evaluations += result.evaluations;
  log->results.emplace_back(config_index, std::move(result));
  ++log->sessions_done;
  return true;
}

}  // namespace

bool SameResult(const SessionResult& a, const SessionResult& b) {
  if (!SameBits(a.best_utility, b.best_utility) ||
      a.trajectory.size() != b.trajectory.size()) {
    return false;
  }
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    if (!SameBits(a.trajectory[i].budget, b.trajectory[i].budget) ||
        !SameBits(a.trajectory[i].utility, b.trajectory[i].utility)) {
      return false;
    }
  }
  return true;
}

ChurnSetup MakeChurnSetup(uint64_t seed, size_t max_train_rows,
                          double budget) {
  ChurnSetup setup;
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  setup.clients = std::clamp<size_t>(cores - 1, 1, 3);
  setup.max_resident = std::max<size_t>(1, setup.clients - 1);
  setup.tasks = SelectTasks(seed ^ 0xc4u, PoolNames(Pool::kChurn).size(),
                            Pool::kChurn, max_train_rows);
  const char* const plans[] = {"joint", "cond(alg)+joint",
                               "cond(alg)+alt(fe,hp)"};
  for (size_t t = 0; t < setup.tasks.size(); ++t) {
    for (const char* plan : plans) {
      ChurnConfig cc;
      cc.task = t;
      cc.config.preset = 0;
      cc.config.plan = plan;
      cc.config.optimizer = "smac";
      cc.config.budget = budget;
      cc.config.seed = setup.tasks[t].search_seed;
      setup.configs.push_back(cc);
    }
  }
  return setup;
}

ChurnResult RunChurn(const ChurnSetup& setup, Tracer* tracer) {
  ChurnResult out;
  out.have_result.assign(setup.configs.size(), false);
  out.results.resize(setup.configs.size());
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(setup.work_dir, ec);
  std::string dir_template = setup.work_dir + "/churn-XXXXXX";
  if (mkdtemp(dir_template.data()) == nullptr) {
    out.error = "cannot create a temporary directory in " + setup.work_dir;
    return out;
  }
  const std::string dir = dir_template;

  volcanoml::DaemonOptions options;
  options.socket_path = dir + "/d.sock";
  options.spool_dir = dir;
  options.max_resident = setup.max_resident;
  volcanoml::Daemon daemon(options);
  volcanoml::Status serve_status = volcanoml::Status::Ok();
  std::vector<ClientLog> logs(setup.clients);
  {
    volcanoml::ThreadPool serve_pool(1);
    std::future<void> served =
        serve_pool.Submit([&] { serve_status = daemon.Serve(); });
    DaemonClient client(options.socket_path);
    // Startup wait (untimed): the socket appears once Serve() binds.
    for (int i = 0; i < 2000 && !out.started; ++i) {
      out.started = client.ListSessions().ok();
      if (!out.started) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (out.started) {
      // Untimed warm-up session, then the idle round trip.
      ClientLog warmup;
      Tracer off(false);
      if (!RunSession(setup, client, 0, 0, &off, &warmup)) {
        out.error = "warm-up session failed";
      }
      std::vector<double> idle;
      for (int i = 0; i < 40; ++i) {
        const Timer t;
        if (client.ListSessions().ok()) idle.push_back(t.Seconds());
      }
      out.idle_rtt_s = PercentileOf(idle, 0.5).value;
      // Set-up time: CreateSession round trips while no session has step
      // credit, so no scheduler turn runs between a request and its reply.
      for (size_t k = 0; k < 2 * setup.configs.size(); ++k) {
        const ChurnConfig& cc = setup.configs[k % setup.configs.size()];
        volcanoml::CreateSessionRequest parked;
        parked.tenant = "setup";
        parked.csv = setup.tasks[cc.task].train_csv;
        parked.config = cc.config;
        parked.step_credit = 0;
        const Timer t;
        if (client.CreateSession(parked).ok()) {
          out.setup_s.push_back(t.Seconds());
        } else {
          out.error = "set-up CreateSession failed";
        }
      }

      const Timer wall;
      volcanoml::ThreadPool clients(setup.clients);
      clients.ParallelFor(setup.clients, [&](size_t c) {
        ClientLog& log = logs[c];
        for (size_t k = c; k < setup.sessions; k += setup.clients) {
          const size_t config_index = k % setup.configs.size();
          if (!RunSession(setup, client, c, config_index, tracer, &log)) {
            ++log.sessions_failed;
          }
        }
      });
      out.wall_seconds = wall.Seconds();
    } else {
      out.error = "daemon did not start";
      daemon.RequestStop();
    }
    if (out.started && !client.Shutdown().ok()) daemon.RequestStop();
    served.wait();
  }
  if (!serve_status.ok() && out.error.empty()) {
    out.error = "daemon serve failed: " + serve_status.ToString();
  }
  fs::remove_all(dir, ec);

  for (ClientLog& log : logs) {
    out.sessions_attempted += log.sessions_attempted;
    out.sessions_done += log.sessions_done;
    out.sessions_failed += log.sessions_failed;
    out.requests += log.requests;
    out.request_failures += log.request_failures;
    out.evaluations += log.evaluations;
    out.evictions_seen += log.evictions_seen;
    out.restores_seen += log.restores_seen;
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&out.create_s, log.create_s);
    append(&out.evict_s, log.evict_s);
    append(&out.query_s, log.query_s);
    append(&out.fetch_s, log.fetch_s);
    append(&out.turnaround_s, log.turnaround_s);
    for (auto& [index, result] : log.results) {
      if (!out.have_result[index]) {
        out.have_result[index] = true;
        out.results[index] = std::move(result);
      } else if (!SameResult(out.results[index], result)) {
        ++out.repeat_mismatches;
      }
    }
  }
  return out;
}

void AddIpcLayerMetrics(const ChurnResult& churn, MetricSet* m) {
  auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  std::vector<double> queue_wait = ms(churn.query_s);
  for (double& x : queue_wait) x -= churn.idle_rtt_s * 1e3;
  std::printf("ipc/daemon layer (%zu sessions, %zu requests):\n",
              churn.sessions_done, churn.requests);
  m->Add("ipc.idle_rtt_ms", churn.idle_rtt_s * 1e3, "ms");
  m->AddPercentile("ipc.create_ms.p50", PercentileOf(ms(churn.create_s), 0.5),
                   "ms");
  m->AddPercentile("ipc.query_ms.p50", PercentileOf(ms(churn.query_s), 0.5),
                   "ms");
  m->AddPercentile("ipc.query_ms.p90", PercentileOf(ms(churn.query_s), 0.9),
                   "ms");
  m->AddPercentile("ipc.evict_ms.p50", PercentileOf(ms(churn.evict_s), 0.5),
                   "ms");
  m->AddPercentile("daemon.queue_wait_ms.p90", PercentileOf(queue_wait, 0.9),
                   "ms");
  m->Add("daemon.evictions", static_cast<double>(churn.evictions_seen),
         "count");
  m->Add("daemon.restores", static_cast<double>(churn.restores_seen), "count");
}

}  // namespace e2ebench
