#include "service/session_manager.hpp"

#include "nbody/snapshot.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace gothic::service {

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::Pending: return "pending";
    case SessionState::Running: return "running";
    case SessionState::Completed: return "completed";
    case SessionState::Failed: return "failed";
  }
  return "?";
}

namespace {

[[nodiscard]] bool terminal(SessionState s) {
  return s == SessionState::Completed || s == SessionState::Failed;
}

} // namespace

nbody::SimConfig session_sim_config(const SessionConfig& cfg) {
  nbody::SimConfig sim = scenario::scenario_sim_config(cfg.scenario);
  // Determinism pin: the serving bit-identity contract (a pooled session's
  // final state equals a solo run of the same scenario+seed) forbids the
  // wall-clock-fed rebuild auto-tuner; everything else in the step loop is
  // already schedule-invariant by the runtime contracts.
  sim.auto_rebuild = false;
  sim.fixed_rebuild_interval = std::max(1, cfg.rebuild_interval);
  sim.stream_prefix = cfg.name.empty() ? std::string() : cfg.name + "/";
  return sim;
}

nbody::Particles session_workload(const SessionConfig& cfg) {
  const std::size_t n = cfg.n != 0 ? cfg.n : cfg.scenario.default_n;
  const std::uint64_t seed =
      cfg.seed != 0 ? cfg.seed : cfg.scenario.default_seed;
  return cfg.scenario.make(n, seed);
}

std::vector<real> packed_state(const nbody::Particles& p) {
  std::vector<real> out;
  out.reserve(p.size() * 11);
  for (const std::vector<real>* v :
       {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az, &p.pot,
        &p.aold_mag}) {
    out.insert(out.end(), v->begin(), v->end());
  }
  return out;
}

std::vector<real> solo_final_state(const SessionConfig& cfg) {
  nbody::ShardOptions so;
  so.shards = std::max(1, cfg.shards);
  nbody::ShardedSimulation sim(session_workload(cfg), session_sim_config(cfg),
                               so);
  for (int i = 0; i < cfg.steps; ++i) (void)sim.step();
  return packed_state(sim.particles());
}

// --- SessionManager --------------------------------------------------------

SessionManager::SessionManager(PoolOptions opt) : opt_(opt) {
  opt_.devices = std::max(1, opt_.devices);
  devices_.reserve(static_cast<std::size_t>(opt_.devices));
  for (int i = 0; i < opt_.devices; ++i) {
    devices_.push_back(std::make_unique<runtime::Device>(opt_.workers));
  }
  drivers_.reserve(static_cast<std::size_t>(opt_.devices));
  for (int i = 0; i < opt_.devices; ++i) {
    drivers_.emplace_back([this, i] { driver(i); });
  }
}

SessionManager::~SessionManager() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : drivers_) t.join();
}

std::uint64_t SessionManager::submit(SessionConfig cfg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto s = std::make_unique<Session>();
  s->id = sessions_.size();
  if (cfg.name.empty()) cfg.name = "s" + std::to_string(s->id);
  // A new session starts at the runnable minimum virtual time: it neither
  // jumps ahead of sessions that already paid for their progress nor gets
  // the whole pool to itself to catch up from zero.
  double vmin = std::numeric_limits<double>::infinity();
  for (const auto& other : sessions_) {
    if (!terminal(other->state)) vmin = std::min(vmin, other->vtime);
  }
  s->vtime = std::isfinite(vmin) ? vmin : 0.0;
  s->cfg = std::move(cfg);
  const std::uint64_t id = s->id;
  sessions_.push_back(std::move(s));
  work_cv_.notify_all();
  return id;
}

void SessionManager::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    for (const auto& s : sessions_) {
      if (!terminal(s->state)) return false;
    }
    return true;
  });
}

SessionState SessionManager::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Session& s = session_at(id);
  done_cv_.wait(lock, [&] { return terminal(s.state); });
  return s.state;
}

const SessionManager::Session&
SessionManager::session_at(std::uint64_t id) const {
  if (id >= sessions_.size()) {
    throw std::out_of_range("SessionManager: unknown session id " +
                            std::to_string(id));
  }
  return *sessions_[id];
}

SessionInfo SessionManager::info_locked(const Session& s) const {
  SessionInfo out;
  out.id = s.id;
  out.name = s.cfg.name;
  out.scenario = s.cfg.scenario.name;
  out.state = s.state;
  out.steps_done = s.steps_done;
  out.steps_target = s.cfg.steps;
  out.busy_seconds = s.busy_seconds;
  out.quota_bytes = s.cfg.arena_quota_bytes;
  out.charged_bytes = s.charged;
  out.picks = s.picks;
  out.wait_max = s.wait_max;
  out.last_device = s.last_device;
  out.error = s.error;
  return out;
}

SessionInfo SessionManager::info(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return info_locked(session_at(id));
}

std::vector<SessionInfo> SessionManager::sessions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& s : sessions_) out.push_back(info_locked(*s));
  return out;
}

ServiceStats SessionManager::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats st;
  st.submitted = sessions_.size();
  st.decisions = decisions_;
  st.wait_max = wait_max_;
  st.starvation_bound_max = bound_max_;
  for (const auto& up : sessions_) {
    const Session& s = *up;
    if (s.state == SessionState::Completed) ++st.completed;
    else if (s.state == SessionState::Failed) ++st.failed;
    else ++st.active;
    st.steps_total += static_cast<std::uint64_t>(s.steps_done);
    st.busy_seconds_total += s.busy_seconds;
    st.busy_seconds_max = std::max(st.busy_seconds_max, s.busy_seconds);
    st.charged_high_water = std::max(st.charged_high_water, s.charged);
  }
  return st;
}

std::uint64_t SessionManager::starvation_bound() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return starvation_bound_locked();
}

std::uint64_t SessionManager::starvation_bound_locked() const {
  std::uint64_t active = 0;
  for (const auto& s : sessions_) {
    if (!terminal(s->state)) ++active;
  }
  return kStarvationSlack * active + kStarvationSlack;
}

int SessionManager::device_count() const {
  return static_cast<int>(devices_.size());
}

runtime::Device& SessionManager::pool_device(int i) {
  return *devices_.at(static_cast<std::size_t>(i));
}

std::vector<real> SessionManager::final_state(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Session& s = session_at(id);
  if (!terminal(s.state)) {
    throw std::logic_error("SessionManager: session " + std::to_string(id) +
                           " is not terminal");
  }
  if (s.sim != nullptr) return packed_state(s.sim->particles());
  throw std::logic_error("SessionManager: session " + std::to_string(id) +
                         " never constructed an engine");
}

void SessionManager::observe(trace::MetricsRegistry& m) const {
  // Call while the pool is idle (after wait_all): the device gauges read
  // worker arenas that in-flight quanta would be mutating.
  const ServiceStats st = stats();
  trace::ServiceSample sample;
  sample.sessions_active = st.active;
  sample.sessions_completed = st.completed;
  sample.sessions_failed = st.failed;
  sample.session_busy_seconds_max = st.busy_seconds_max;
  sample.session_busy_seconds_total = st.busy_seconds_total;
  sample.quota_high_water_bytes = st.charged_high_water;
  m.record_service(sample);
  for (const auto& d : devices_) m.observe_device(*d);
}

// --- the driver loop -------------------------------------------------------

void SessionManager::driver(int device_index) {
  runtime::Device& dev = *devices_[static_cast<std::size_t>(device_index)];
  // Route every session quantum this driver runs — a one-shard engine
  // resolves Device::current() at every call — onto the pool device.
  // Sessions may migrate between drivers; bit-identity across worker
  // counts and schedules makes that invisible.
  runtime::ScopedDevice scope(dev);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stopping_) return;
    Session* s = pick_locked();
    if (s == nullptr) {
      work_cv_.wait(lock);
      continue;
    }
    s->stepping = true;
    s->last_device = device_index;
    if (s->state == SessionState::Pending) s->state = SessionState::Running;
    lock.unlock();
    const Outcome out = advance(*s, dev);
    lock.lock();
    s->stepping = false;
    s->busy_seconds += out.seconds;
    s->vtime += out.seconds;
    s->charged += out.charged_add;
    s->steps_done += out.steps_add;
    s->state = out.next;
    if (!out.error.empty()) s->error = out.error;
    if (terminal(out.next)) done_cv_.notify_all();
    // The session (or a starved sibling) is pickable again — wake every
    // idle driver, not just one, so the pool drains in parallel.
    work_cv_.notify_all();
  }
}

SessionManager::Session* SessionManager::pick_locked() {
  const std::uint64_t bound = starvation_bound_locked();
  Session* starved = nullptr;
  Session* best = nullptr;
  for (auto& up : sessions_) {
    Session& s = *up;
    if (s.stepping || terminal(s.state)) continue;
    if (s.wait >= bound && (starved == nullptr || s.wait > starved->wait)) {
      starved = &s;
    }
    if (best == nullptr || s.vtime < best->vtime) best = &s;
  }
  // Aging overrides the weights: a session passed over `bound` times is
  // force-picked, so no weight disparity can starve anyone indefinitely
  // (wait_max <= bound_max + submitted, asserted in tests).
  Session* pick = starved != nullptr ? starved : best;
  if (pick == nullptr) return nullptr;
  ++decisions_;
  bound_max_ = std::max(bound_max_, bound);
  for (auto& up : sessions_) {
    Session& s = *up;
    if (&s == pick || s.stepping || terminal(s.state)) continue;
    ++s.wait;
    s.wait_max = std::max(s.wait_max, s.wait);
    wait_max_ = std::max(wait_max_, s.wait);
  }
  pick->wait = 0;
  ++pick->picks;
  return pick;
}

std::size_t SessionManager::engine_capacity(const Session& s,
                                            runtime::Device& dev) const {
  // A session about to construct has no engine yet: a one-shard one will
  // run on the pool device, a sharded one on devices it has not built.
  if (s.sim == nullptr) return s.cfg.shards > 1 ? 0 : dev.arena_capacity();
  std::size_t sum = 0;
  for (int k = 0; k < s.sim->shard_count(); ++k) {
    sum += s.sim->shard_device(k).arena_capacity();
  }
  return sum;
}

void SessionManager::construct(Session& s) {
  nbody::SimConfig cfg = session_sim_config(s.cfg);
  nbody::Particles p = session_workload(s.cfg);
  if (s.cfg.shards > 1) {
    nbody::ShardOptions so;
    so.shards = s.cfg.shards;
    so.workers = opt_.workers;
    s.sim = std::make_unique<nbody::ShardedSimulation>(std::move(p),
                                                       std::move(cfg), so);
  } else {
    // One shard on the ambient device: whichever driver steps the session.
    s.sim = std::make_unique<nbody::Simulation>(std::move(p), std::move(cfg));
  }
  if (!s.cfg.trace_path.empty() || !s.cfg.telemetry_path.empty()) {
    s.observer = std::make_unique<trace::Session>(s.cfg.trace_path,
                                                  s.cfg.telemetry_path);
    s.sim->set_instrumentation_listener(s.observer.get());
  }
  // Per-session incident dumps: concurrent faults on a shared
  // GOTHIC_FLIGHT destination stay identifiable and never clobber.
  if (trace::FlightRecorder* fr = s.sim->flight_recorder()) {
    fr->set_dump_tag(s.cfg.name);
  }
}

void SessionManager::finish_observability(Session& s) {
  if (s.observer == nullptr) return;
  s.sim->set_instrumentation_listener(nullptr);
  (void)s.observer->finish(s.sim->shard_device(0));
}

SessionManager::Outcome SessionManager::advance(Session& s,
                                                runtime::Device& dev) {
  Outcome out;
  const std::size_t cap0 = engine_capacity(s, dev);
  Stopwatch sw;
  try {
    if (s.sim == nullptr) {
      construct(s); // the first quantum: bootstrap build + forces
    } else {
      (void)s.sim->step();
      out.steps_add = 1;
    }
    out.seconds = sw.seconds();
    const std::size_t cap1 = engine_capacity(s, dev);
    out.charged_add = cap1 > cap0 ? cap1 - cap0 : 0;
    const std::size_t charged = s.charged + out.charged_add;
    const int done = s.steps_done + out.steps_add;
    if (s.cfg.arena_quota_bytes > 0 && charged > s.cfg.arena_quota_bytes) {
      // Reject-on-exceed: this session is over its marginal-footprint
      // budget; fail it here instead of letting it push the shared pool
      // toward a global OOM.
      out.next = SessionState::Failed;
      out.error = "arena quota exceeded: charged " + std::to_string(charged) +
                  " B > quota " + std::to_string(s.cfg.arena_quota_bytes) +
                  " B";
    } else if (done >= s.cfg.steps) {
      out.next = SessionState::Completed;
    }
    if (s.cfg.snapshot_every > 0 && !s.cfg.snapshot_path.empty() &&
        out.next != SessionState::Failed && out.steps_add > 0 &&
        (done % s.cfg.snapshot_every == 0 ||
         out.next == SessionState::Completed)) {
      try {
        nbody::write_snapshot(s.cfg.snapshot_path, s.sim->particles(),
                              s.sim->time());
      } catch (const std::exception& e) {
        // Observability never kills the physics: keep stepping.
        std::fprintf(stderr, "gothic: session %s checkpoint failed: %s\n",
                     s.cfg.name.c_str(), e.what());
      }
    }
  } catch (const std::exception& e) {
    out.seconds = sw.seconds();
    out.next = SessionState::Failed;
    out.error = (e.what() != nullptr && e.what()[0] != '\0')
                    ? e.what()
                    : "unknown error";
  } catch (...) {
    out.seconds = sw.seconds();
    out.next = SessionState::Failed;
    out.error = "unknown error";
  }
  if (terminal(out.next)) finish_observability(s);
  return out;
}

} // namespace gothic::service
