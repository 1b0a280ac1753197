#include "nbody/simulation.hpp"

#include "nbody/integrator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace gothic::nbody {

/// One shard: a device (or the ambient one), its streams and sink, a
/// contiguous body/group range of the global decomposition, the node
/// ranges it owns, the events of the step in flight and — with imports —
/// a NaN-poisoned view of the tree (geometry + positions) holding exactly
/// what its walk is entitled to read: its own cells and bodies, the
/// replicated top cells, and the imported LETs.
struct ShardedSimulation::Shard {
  int id = 0;
  /// Stream names — per-shard trace tracks fall out of the stream-name
  /// keyed trace writer. Streams hold a const char* into these strings;
  /// Shard objects are never moved.
  std::string tree_name;
  std::string integrate_name;
  /// Null for a Simulation's shard, which runs on Device::current().
  std::unique_ptr<runtime::Device> dev;
  runtime::InstrumentationSink sink;
  runtime::Stream tree_stream;
  runtime::Stream integrate_stream;

  // Partition state (refreshed each rebuild).
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::size_t group_begin = 0;
  std::size_t group_end = 0;
  std::vector<octree::NodeRange> owned;
  std::size_t owned_count = 0;

  // The shard's tree view (imports only): topology copied from the global
  // tree at each rebuild, geometry re-poisoned and re-imported every step.
  octree::Octree view;
  std::vector<real> vx, vy, vz;

  gravity::LetBounds bounds;
  std::vector<gravity::LetExport> imports; ///< indexed by source shard
  gravity::WalkStats stats;
  std::uint64_t let_cells = 0;  ///< cells imported this step (all sources)
  std::uint64_t let_bodies = 0; ///< bodies imported this step
  /// Events of the step in flight; null where the shard skipped a launch.
  runtime::Event e_pred, e_calc, e_let, e_walk;

  [[nodiscard]] runtime::Device& device() const {
    return dev ? *dev : runtime::Device::current();
  }

  /// A launch on one of this shard's streams, recording into its sink.
  runtime::LaunchDesc desc(Kernel kernel, const char* label,
                           std::size_t items, runtime::Stream& stream) {
    runtime::LaunchDesc d;
    d.kernel = kernel;
    d.label = label;
    d.items = items;
    d.stream = &stream;
    d.sink = &sink;
    return d;
  }

  /// Rule 1: an event of this shard's device becomes a device-side
  /// dependency of `d`; another device's event is waited for here, on
  /// the host — events cannot cross devices.
  void depend(runtime::LaunchDesc& d, runtime::Event e) const {
    if (!e.valid()) return;
    if (e.device != &device()) {
      e.wait();
      return;
    }
    for (runtime::Event& slot : d.deps) {
      if (!slot.valid()) {
        slot = e;
        return;
      }
    }
    throw std::logic_error(std::string("ShardedSimulation: '") + d.label +
                           "' has more same-device dependencies than slots");
  }
};

ShardedSimulation::ShardedSimulation(Particles particles, SimConfig cfg,
                                     ShardOptions opt)
    : ShardedSimulation(std::move(particles), std::move(cfg), opt, false) {}

ShardedSimulation::ShardedSimulation(Particles particles, SimConfig cfg,
                                     AmbientDevice)
    : ShardedSimulation(std::move(particles), std::move(cfg), ShardOptions{},
                        true) {}

Simulation::Simulation(Particles particles, SimConfig cfg)
    : ShardedSimulation(std::move(particles), std::move(cfg),
                        AmbientDevice{}) {}

ShardedSimulation::ShardedSimulation(Particles particles, SimConfig cfg,
                                     ShardOptions opt, bool ambient)
    : particles_(std::move(particles)), cfg_(std::move(cfg)),
      steps_(cfg_.dt_max, cfg_.block_time_steps ? cfg_.max_level : 0),
      policy_(cfg_.policy) {
  if (particles_.size() == 0) {
    throw std::invalid_argument("ShardedSimulation: empty particle set");
  }
  if (opt.shards < 1) {
    throw std::invalid_argument("ShardedSimulation: need at least one shard");
  }
  const std::size_t n = particles_.size();
  for (std::vector<real>* v : {&px_, &py_, &pz_, &nax_, &nay_, &naz_, &npot_}) {
    v->resize(n);
  }

  // Flight recorder before the first launch, so the bootstrap DAG reaches
  // the ring if it faults.
  if (trace::FlightRecorder::env_enabled()) {
    flight_ = std::make_unique<trace::FlightRecorder>();
  }

  shards_.reserve(static_cast<std::size_t>(opt.shards));
  for (int s = 0; s < opt.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->id = s;
    const std::string base =
        cfg_.stream_prefix +
        (opt.shards > 1 ? "shard" + std::to_string(s) + "/" : "");
    sh->tree_name = base + "tree";
    sh->integrate_name = base + "integrate";
    sh->tree_stream = runtime::Stream(sh->tree_name.c_str());
    sh->integrate_stream = runtime::Stream(sh->integrate_name.c_str());
    if (!ambient) {
      sh->dev = std::make_unique<runtime::Device>(opt.workers);
    }
    shards_.push_back(std::move(sh));
  }

  try {
    launch_rebuild(false).wait();
    whole_tree_forces(true);
  } catch (...) {
    fail(std::current_exception(), "ShardedSimulation bootstrap error");
  }
  // The bootstrap's makeTree records are shard 0's: it issues every
  // rebuild.
  double make_seconds = 0.0;
  for (const runtime::LaunchRecord& rec : shards_[0]->sink.step_records()) {
    if (rec.kernel == Kernel::MakeTree) make_seconds += rec.seconds;
  }
  policy_.record_rebuild(make_seconds);
  deliver(nullptr);

  // Assign initial block levels from the bootstrap accelerations.
  std::vector<double> dt_req(n);
  for (std::size_t i = 0; i < n; ++i) {
    dt_req[i] = required_dt(cfg_.eta, cfg_.walk.eps, particles_.aold_mag[i]);
  }
  steps_.initialize(dt_req);
  refresh_partition();
}

ShardedSimulation::~ShardedSimulation() = default;
ShardedSimulation::ShardedSimulation(ShardedSimulation&&) noexcept = default;
ShardedSimulation& ShardedSimulation::operator=(ShardedSimulation&&) noexcept =
    default;

runtime::Device& ShardedSimulation::shard_device(int s) {
  if (s < 0 || s >= shard_count()) {
    throw std::out_of_range("ShardedSimulation: shard index out of range");
  }
  return shards_[static_cast<std::size_t>(s)]->device();
}

std::vector<const runtime::Device*> ShardedSimulation::devices() const {
  std::vector<const runtime::Device*> out;
  for (const auto& shard : shards_) out.push_back(&shard->device());
  return out;
}

const runtime::InstrumentationSink& ShardedSimulation::sink(int s) const {
  if (s < 0 || s >= shard_count()) {
    throw std::out_of_range("ShardedSimulation: shard index out of range");
  }
  return shards_[static_cast<std::size_t>(s)]->sink;
}

runtime::Event ShardedSimulation::launch_rebuild(bool with_pred) {
  Shard& c = *shards_[0];
  runtime::Device& dev = c.device();
  const std::size_t n = particles_.size();

  // Build: read-only on the particle state, so it overlaps the predict
  // launches drifting the same particles on the integration streams.
  dev.launch(c.desc(Kernel::MakeTree, "makeTree", n, c.tree_stream),
             [this](simt::OpCounts& ops) {
               octree::build_tree(particles_.x, particles_.y, particles_.z,
                                  tree_, perm_, cfg_.build, &ops);
             });

  // Permute: the join of the streams. It reorders the particle state
  // (which predict reads) and the predicted positions (which predict
  // writes), so it waits for every shard's predict; elementwise
  // prediction commutes with the permutation, so the result is identical
  // to predicting after the reorder.
  runtime::LaunchDesc jd =
      c.desc(Kernel::MakeTree, "makeTree(permute)", n, c.tree_stream);
  for (const auto& sh : shards_) c.depend(jd, sh->e_pred);
  const runtime::Event e_perm =
      dev.launch(jd, [this, with_pred](simt::OpCounts&) {
        // Every array is gathered through retained scratch (worker
        // arenas, block-step buffers), so a rebuild makes no N-sized heap
        // request.
        particles_.apply_permutation(perm_);
        if (steps_.size() == particles_.size()) steps_.apply_permutation(perm_);
        if (with_pred) {
          const std::span<real> predicted[] = {px_, py_, pz_};
          octree::permute_in_place(predicted, perm_);
        }
        // Carry the measured costs through the reorder: spread over the
        // bodies of the old groups, permuted, summed per new group
        // (uniform before the bootstrap walk has measured anything).
        body_cost_.assign(perm_.size(), 1.0);
        for (std::size_t g = 0; g < groups_.size(); ++g) {
          const double per =
              group_cost_[g] / static_cast<double>(groups_[g].count);
          std::fill_n(body_cost_.begin() + groups_[g].first,
                      groups_[g].count, per);
        }
        gravity::walk_groups(tree_, particles_.x, particles_.y, particles_.z,
                             groups_);
        group_active_.assign(groups_.size(), 1);
        group_cost_.resize(groups_.size());
        // One collective over the new groups; each group sums its bodies
        // in body order, as one serial loop would.
        runtime::Device::current().parallel_ranges(
            0, groups_.size(),
            [this](runtime::Worker&, std::size_t lo, std::size_t hi) {
              for (std::size_t g = lo; g < hi; ++g) {
                const std::size_t b0 = groups_[g].first;
                double cost = 0.0;
                for (std::size_t i = b0; i < b0 + groups_[g].count; ++i) {
                  cost += body_cost_[perm_[i]];
                }
                group_cost_[g] = cost;
              }
            });
      });
  ++rebuilds_;
  steps_since_rebuild_ = 0;
  return e_perm;
}

void ShardedSimulation::whole_tree_forces(bool bootstrap) {
  Shard& c = *shards_[0];
  runtime::Device& dev = c.device();
  dev.launch(c.desc(Kernel::CalcNode,
                    bootstrap ? "calcNode(bootstrap)" : "calcNode(refresh)",
                    tree_.num_nodes(), c.tree_stream),
             [this](simt::OpCounts& ops) {
               octree::calc_node(tree_, particles_.x, particles_.y,
                                 particles_.z, particles_.m, cfg_.calc, &ops);
             });

  // The bootstrap has no previous acceleration, so Eq. 2 is unusable:
  // GOTHIC seeds with a geometric criterion. It walks the rebuild's
  // groups, so its measured per-group costs seed the first partition.
  gravity::WalkConfig walk = cfg_.walk;
  std::span<const real> aold = particles_.aold_mag;
  std::span<const gravity::GroupSpan> groups;
  std::span<double> costs;
  if (bootstrap) {
    walk.mac.type = gravity::MacType::OpeningAngle;
    walk.mac.theta = real(0.7);
    aold = {};
    groups = groups_;
    costs = group_cost_;
  }
  dev.launch(c.desc(Kernel::WalkTree,
                    bootstrap ? "walkTree(bootstrap)" : "walkTree(refresh)",
                    particles_.size(), c.tree_stream),
             [&](simt::OpCounts& ops) {
               gravity::walk_tree(tree_, particles_.x, particles_.y,
                                  particles_.z, particles_.m, aold, walk,
                                  particles_.ax, particles_.ay, particles_.az,
                                  particles_.pot, &ops, nullptr, {}, groups,
                                  costs);
             });
  dev.synchronize();
  if (!bootstrap) return;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_.aold_mag[i] = std::sqrt(
        particles_.ax[i] * particles_.ax[i] +
        particles_.ay[i] * particles_.ay[i] +
        particles_.az[i] * particles_.az[i]);
  }
}

void ShardedSimulation::refresh_partition() {
  const std::size_t n = particles_.size();
  const int k = shard_count();

  group_bounds_ = octree::partition_weighted(group_cost_, k);
  body_bounds_.assign(static_cast<std::size_t>(k) + 1,
                      static_cast<index_t>(n));
  body_bounds_[0] = 0;
  for (int s = 1; s < k; ++s) {
    const std::size_t gb = group_bounds_[static_cast<std::size_t>(s)];
    body_bounds_[static_cast<std::size_t>(s)] =
        gb < groups_.size() ? groups_[gb].first : static_cast<index_t>(n);
  }

  // Nodes straddling a shard boundary (none with one shard).
  top_ = octree::top_node_ranges(tree_, body_bounds_);
  top_count_ = 0;
  top_leaf_.clear();
  for (const octree::NodeRange& r : top_) {
    top_count_ += r.end - r.begin;
    for (index_t node = r.begin; node < r.end; ++node) {
      if (tree_.is_leaf(node) && tree_.body_count[node] > 0) {
        top_leaf_.push_back({tree_.body_first[node], tree_.body_count[node]});
      }
    }
  }

  // Size the (shared) quadrupole arrays once here: the per-shard
  // calc_node_ranges sweeps must never reallocate shared storage.
  octree::prepare_quadrupole(tree_, cfg_.calc.compute_quadrupole);

  for (const auto& shp : shards_) {
    Shard& sh = *shp;
    const auto s = static_cast<std::size_t>(sh.id);
    sh.body_begin = body_bounds_[s];
    sh.body_end = body_bounds_[s + 1];
    sh.group_begin = group_bounds_[s];
    sh.group_end = group_bounds_[s + 1];
    sh.owned = octree::owned_node_ranges(tree_, body_bounds_, sh.id);
    sh.owned_count = 0;
    for (const octree::NodeRange& r : sh.owned) {
      sh.owned_count += r.end - r.begin;
    }
    if (imports()) {
      sh.view = tree_; // topology + sized geometry arrays
      sh.vx.resize(n);
      sh.vy.resize(n);
      sh.vz.resize(n);
      sh.imports.resize(static_cast<std::size_t>(k));
    }
  }
}

void ShardedSimulation::let_import(Shard& sh) {
  const index_t nn = tree_.num_nodes();
  const std::size_t n = particles_.size();
  const real qnan = std::numeric_limits<real>::quiet_NaN();
  octree::Octree& v = sh.view;
  const bool quad = tree_.has_quadrupole();

  // Poison everything the walk is not entitled to read. A poisoned node
  // is never MAC-accepted (NaN comparisons are false, so it is opened)
  // and its poisoned leaves spill NaN positions — a LET gap becomes NaN
  // accelerations the bit-identity oracle catches, never a silent error.
  v.mass.assign(nn, qnan);
  v.com_x.assign(nn, qnan);
  v.com_y.assign(nn, qnan);
  v.com_z.assign(nn, qnan);
  v.bmax.assign(nn, qnan);
  if (quad) {
    v.quad_xx.assign(nn, qnan);
    v.quad_xy.assign(nn, qnan);
    v.quad_xz.assign(nn, qnan);
    v.quad_yy.assign(nn, qnan);
    v.quad_yz.assign(nn, qnan);
    v.quad_zz.assign(nn, qnan);
  }
  sh.vx.assign(n, qnan);
  sh.vy.assign(n, qnan);
  sh.vz.assign(n, qnan);

  auto copy_cell = [&](index_t node) {
    v.mass[node] = tree_.mass[node];
    v.com_x[node] = tree_.com_x[node];
    v.com_y[node] = tree_.com_y[node];
    v.com_z[node] = tree_.com_z[node];
    v.bmax[node] = tree_.bmax[node];
    if (quad) {
      v.quad_xx[node] = tree_.quad_xx[node];
      v.quad_xy[node] = tree_.quad_xy[node];
      v.quad_xz[node] = tree_.quad_xz[node];
      v.quad_yy[node] = tree_.quad_yy[node];
      v.quad_yz[node] = tree_.quad_yz[node];
      v.quad_zz[node] = tree_.quad_zz[node];
    }
  };
  auto copy_bodies = [&](index_t first, index_t count) {
    for (index_t i = first; i < first + count; ++i) {
      sh.vx[i] = px_[i];
      sh.vy[i] = py_[i];
      sh.vz[i] = pz_[i];
    }
  };

  // Own slice + own cells, plus the replicated top cells and top-leaf
  // body ranges (a shard boundary may split a leaf; its spill reads the
  // whole leaf range).
  copy_bodies(static_cast<index_t>(sh.body_begin),
              static_cast<index_t>(sh.body_end - sh.body_begin));
  for (const gravity::LetRange& r : top_leaf_) copy_bodies(r.first, r.count);
  for (const octree::NodeRange& r : sh.owned) {
    for (index_t node = r.begin; node < r.end; ++node) copy_cell(node);
  }
  for (const octree::NodeRange& r : top_) {
    for (index_t node = r.begin; node < r.end; ++node) copy_cell(node);
  }

  // Import each remote shard's local essential tree.
  const int k = shard_count();
  for (int src = 0; src < k; ++src) {
    if (src == sh.id) continue;
    gravity::LetExport& imp = sh.imports[static_cast<std::size_t>(src)];
    imp.clear();
    gravity::build_let(tree_, cfg_.walk,
                       body_bounds_[static_cast<std::size_t>(src)],
                       body_bounds_[static_cast<std::size_t>(src) + 1],
                       sh.bounds, imp);
    for (const index_t cell : imp.cells) copy_cell(cell);
    for (const gravity::LetRange& r : imp.bodies) {
      copy_bodies(r.first, r.count);
    }
    sh.let_cells += imp.cells.size();
    sh.let_bodies += imp.body_total();
  }
}

void ShardedSimulation::deliver(const runtime::StepMark* mark) {
  for (const auto& sh : shards_) {
    for (const runtime::LaunchRecord& rec : sh->sink.step_records()) {
      if (flight_) flight_->on_record(rec);
      if (listener_ != nullptr) listener_->on_record(rec);
    }
  }
  if (mark == nullptr) return;
  if (flight_) flight_->on_step(*mark);
  if (listener_ != nullptr) listener_->on_step(*mark);
}

std::exception_ptr ShardedSimulation::join() {
  std::exception_ptr first;
  for (const auto& sh : shards_) {
    try {
      sh->device().synchronize();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  return first;
}

void ShardedSimulation::fail(std::exception_ptr err,
                             const std::string& reason) {
  (void)join(); // the devices' own errors are secondary to `err`
  if (flight_) {
    // The aborted phase's records were never delivered: they go to the
    // ring only — the listener stays out of the error path — and the
    // incident is dumped.
    for (const auto& sh : shards_) {
      for (const runtime::LaunchRecord& rec : sh->sink.step_records()) {
        flight_->on_record(rec);
      }
    }
    flight_->dump(reason);
  }
  std::rethrow_exception(err);
}

StepReport ShardedSimulation::step() {
  StepReport report;
  for (const auto& sh : shards_) {
    sh->sink.begin_step();
    sh->stats = gravity::WalkStats{};
    sh->let_cells = 0;
    sh->let_bodies = 0;
    sh->e_pred = sh->e_calc = sh->e_let = sh->e_walk = runtime::Event{};
  }

  report.dt = steps_.advance();

  try {
    // --- predict: each shard drifts its own body slice ------------------
    // Issued first so the tree build can overlap it: it drifts the
    // particles on the integration stream while makeTree reads the same
    // (unreordered) positions on the tree stream.
    for (const auto& shp : shards_) {
      Shard& sh = *shp;
      const std::size_t b0 = sh.body_begin;
      const std::size_t b1 = sh.body_end;
      if (b1 <= b0) continue;
      sh.e_pred = sh.device().launch(
          sh.desc(Kernel::PredictCorrect, "predict", b1 - b0,
                  sh.integrate_stream),
          [this, b0, b1](simt::OpCounts& ops) {
            predict_positions_range(particles_, steps_, px_, py_, pz_, b0,
                                    b1, &ops);
          });
    }

    // --- rebuild, auto-tuned (GOTHIC) or on a fixed cadence -------------
    const bool due = cfg_.auto_rebuild
                         ? policy_.should_rebuild()
                         : steps_since_rebuild_ >= cfg_.fixed_rebuild_interval;
    runtime::Event e_perm;
    if (due) {
      // The host joins the permute here: refresh_partition and the
      // group-activity loop read the tree, groups and block levels it
      // rewrites. That costs no kernel concurrency — everything issued
      // below depends on it anyway, and the predicts and the build are
      // already in flight.
      e_perm = launch_rebuild(true);
      e_perm.wait();
      report.rebuilt = true;
      refresh_partition();
    }

    // --- calcNode: each shard summarises its owned nodes ----------------
    // From the predicted positions — after the permute that reordered
    // them, on rebuild steps.
    for (const auto& shp : shards_) {
      Shard& sh = *shp;
      if (sh.owned_count == 0) continue;
      runtime::LaunchDesc cd = sh.desc(Kernel::CalcNode, "calcNode",
                                       sh.owned_count, sh.tree_stream);
      sh.depend(cd, due ? e_perm : sh.e_pred);
      Shard* p = &sh;
      sh.e_calc = sh.device().launch(cd, [this, p](simt::OpCounts& ops) {
        octree::calc_node_ranges(tree_, px_, py_, pz_, particles_.m,
                                 cfg_.calc, p->owned, &ops);
      });
    }

    // --- top pass: the nodes straddling shard boundaries (shard 0) ------
    // They sum bodies and node moments of every shard.
    runtime::Event e_top;
    if (top_count_ > 0) {
      Shard& c = *shards_[0];
      runtime::LaunchDesc td =
          c.desc(Kernel::CalcNode, "calcNode(top)", top_count_, c.tree_stream);
      for (const auto& sh : shards_) {
        c.depend(td, sh->e_pred);
        c.depend(td, sh->e_calc);
      }
      e_top = c.device().launch(td, [this](simt::OpCounts& ops) {
        octree::calc_node_ranges(tree_, px_, py_, pz_, particles_.m,
                                 cfg_.calc, top_, &ops);
      });
    }

    // --- group activity (host bookkeeping) ------------------------------
    report.n_active = 0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      std::uint8_t any = 0;
      const std::size_t lo = groups_[g].first;
      const std::size_t hi = lo + groups_[g].count;
      for (std::size_t i = lo; i < hi; ++i) {
        if (steps_.active(i)) {
          any = 1;
          ++report.n_active;
        }
      }
      group_active_[g] = any;
    }

    // --- LET (rule 2): import what the active groups' MAC can reach ------
    if (imports()) {
      const std::span<const gravity::GroupSpan> all_groups(groups_);
      const std::span<const std::uint8_t> all_active(group_active_);
      for (const auto& shp : shards_) {
        Shard& sh = *shp;
        sh.bounds = gravity::LetBounds{};
        const std::size_t gcount = sh.group_end - sh.group_begin;
        if (gcount == 0) continue;
        sh.e_pred.wait(); // let_bounds reads the predicted slice on the host
        sh.bounds = gravity::let_bounds(
            px_, py_, pz_, particles_.aold_mag,
            all_groups.subspan(sh.group_begin, gcount),
            all_active.subspan(sh.group_begin, gcount), cfg_.walk.mode);
        runtime::LaunchDesc ld = sh.desc(Kernel::LetImport, "letImport",
                                         tree_.num_nodes(), sh.tree_stream);
        for (const auto& o : shards_) {
          sh.depend(ld, o->e_pred);
          sh.depend(ld, o->e_calc);
        }
        sh.depend(ld, e_top);
        Shard* p = &sh;
        sh.e_let = sh.device().launch(ld, [this, p](simt::OpCounts& ops) {
          let_import(*p);
          // Data motion: poison + copy of the view arrays.
          ops.bytes_store +=
              (static_cast<std::uint64_t>(p->view.num_nodes()) * 20 +
               static_cast<std::uint64_t>(p->vx.size()) * 12);
        });
      }
    }

    // --- walk: each shard's groups --------------------------------------
    // Over the shard's view when it imports, else straight over the tree
    // and the predicted positions.
    for (const auto& shp : shards_) {
      Shard& sh = *shp;
      const std::size_t gcount = sh.group_end - sh.group_begin;
      if (gcount == 0) continue;
      runtime::LaunchDesc wd =
          sh.desc(Kernel::WalkTree, "walkTree", gcount, sh.tree_stream);
      sh.depend(wd, sh.e_pred);
      sh.depend(wd, sh.e_calc);
      sh.depend(wd, sh.e_let);
      Shard* p = &sh;
      sh.e_walk = sh.device().launch(wd, [this, p](simt::OpCounts& ops) {
        const bool view = imports();
        const std::size_t gb = p->group_begin;
        const std::size_t gc = p->group_end - gb;
        gravity::walk_tree(
            view ? p->view : tree_, view ? p->vx : px_, view ? p->vy : py_,
            view ? p->vz : pz_, particles_.m, particles_.aold_mag, cfg_.walk,
            nax_, nay_, naz_, npot_, &ops, &p->stats,
            std::span<const std::uint8_t>(group_active_).subspan(gb, gc),
            std::span<const gravity::GroupSpan>(groups_).subspan(gb, gc),
            std::span<double>(group_cost_).subspan(gb, gc));
      });
    }

    // --- correct: each shard finalises its own slice --------------------
    for (const auto& shp : shards_) {
      Shard& sh = *shp;
      const std::size_t b0 = sh.body_begin;
      const std::size_t b1 = sh.body_end;
      if (b1 <= b0) continue;
      runtime::LaunchDesc kd = sh.desc(Kernel::PredictCorrect, "correct",
                                       b1 - b0, sh.integrate_stream);
      sh.depend(kd, sh.e_walk);
      sh.device().launch(kd, [this, b0, b1](simt::OpCounts& ops) {
        correct_active_range(particles_, steps_, px_, py_, pz_, nax_, nay_,
                             naz_, npot_, cfg_.eta, cfg_.walk.eps, b0, b1,
                             &ops);
      });
    }
  } catch (...) {
    fail(std::current_exception(),
         "ShardedSimulation::step host issue failure at step " +
             std::to_string(step_count_ + 1));
  }

  // --- join every device; one shard's failure must not poison the rest ---
  const std::exception_ptr err = join();
  ++steps_since_rebuild_;
  ++step_count_;
  if (err) {
    fail(err, "ShardedSimulation::step shard error at step " +
                  std::to_string(step_count_));
  }

  // --- harvest ----------------------------------------------------------
  // The report's per-kernel seconds/ops are the step's LaunchRecords; its
  // makeTree and walkTree seconds feed the interval auto-tuner (shard 0
  // issues every makeTree launch, so that bucket is the rebuild alone).
  last_stats_ = ShardStepStats{};
  double busy_sum = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    double busy = 0.0;
    for (const runtime::LaunchRecord& rec : sh.sink.step_records()) {
      const auto ki = static_cast<std::size_t>(rec.kernel);
      report.seconds[ki] += rec.seconds;
      report.ops[ki] += rec.ops;
      busy += rec.seconds;
      if (first || rec.t_begin < lo) lo = rec.t_begin;
      if (first || rec.t_end > hi) hi = rec.t_end;
      first = false;
    }
    report.walk_stats += sh.stats;
    busy_sum += busy;
    last_stats_.busy_max = std::max(last_stats_.busy_max, busy);
    last_stats_.let_cells_total += sh.let_cells;
    last_stats_.let_bodies_total += sh.let_bodies;
  }
  last_stats_.busy_mean = busy_sum / static_cast<double>(shard_count());
  // Every shard stamps the process clock: the step's wall time is the
  // union span of all its launches.
  report.wall_seconds = hi - lo;
  if (report.rebuilt) {
    policy_.record_rebuild(
        report.seconds[static_cast<std::size_t>(Kernel::MakeTree)]);
  }
  policy_.record_walk(
      report.seconds[static_cast<std::size_t>(Kernel::WalkTree)]);
  report.time = steps_.time();

  runtime::StepMark mark;
  mark.index = static_cast<std::uint64_t>(step_count_);
  mark.rebuilt = report.rebuilt;
  mark.t_begin = lo;
  mark.t_end = hi;
  mark.kernel_seconds = report.total_seconds();
  mark.wall_seconds = report.wall_seconds;
  mark.walk_imbalance = report.walk_stats.imbalance();
  // A one-shard step is unsharded: its shard fields stay zero.
  if (imports()) {
    mark.shards = shard_count();
    mark.shard_busy_max = last_stats_.busy_max;
    mark.shard_busy_mean = last_stats_.busy_mean;
    mark.let_cells = last_stats_.let_cells_total;
    mark.let_bodies = last_stats_.let_bodies_total;
  }
  deliver(&mark);
  return report;
}

void ShardedSimulation::run(int n) {
  for (int i = 0; i < n; ++i) (void)step();
}

void ShardedSimulation::refresh_forces() {
  for (const auto& sh : shards_) sh->sink.begin_step();
  try {
    whole_tree_forces(false);
  } catch (...) {
    fail(std::current_exception(), "ShardedSimulation::refresh_forces error");
  }
  deliver(nullptr);
}

} // namespace gothic::nbody
