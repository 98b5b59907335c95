// The emitter: lowers a resolved model — scheduled actors plus Algorithm 2's
// batch-region loops — into the cgir translation unit, runs the cgir pass
// pipeline over it, and prints the result.  At -O1 and up the model is first
// rewritten by range-driven lane narrowing (analysis/narrow.hpp), so the
// emitter itself only lowers.  Lowering gives every signal its
// own buffer; the arena pass (cgir/passes.hpp) alone decides which of them
// share storage, at every -O level: at -O0 it is the only pass, -O1 adds
// loop fusion before it, -O2 the restructuring passes and scalar copy
// forwarding.
#include <set>

#include "actors/catalog.hpp"
#include "actors/exec.hpp"
#include "analysis/narrow.hpp"
#include "analysis/verifier.hpp"
#include "cgir/cgir.hpp"
#include "cgir/passes.hpp"
#include "codegen/generator.hpp"
#include "actors/resolve.hpp"
#include "graph/regions.hpp"
#include "kernels/library.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace hcg::codegen {

namespace {

/// BatchMode::kUnrollThenLoops: arrays up to this length are fully unrolled.
constexpr int kUnrollThreshold = 32;

/// A signal is identified by its producing (actor, output port).
using SignalId = std::pair<ActorId, int>;

using cgir::Piece;
using cgir::Pieces;

/// Element index meaning "the element the enclosing loop is at".
constexpr int kLoopIndex = -1;

/// Element `index` of `buffer` (kLoopIndex: the loop's element).
Piece element(std::string buffer, bool write, int index) {
  if (index == kLoopIndex) return Piece::element(std::move(buffer), write);
  return Piece::element_at(std::move(buffer), write, index);
}

class Emitter {
 public:
  Emitter(const Model& model, const EmitConfig& config)
      : model_(model), config_(config) {
    Stopwatch timer;
    resolve_model(model_);
    resolve_ms_ = timer.elapsed_seconds() * 1e3;
  }

  GeneratedCode run() {
    out_.model_name = model_.name();
    out_.tool_name = config_.tool_name;
    out_.init_symbol = model_.name() + "_init";
    out_.step_symbol = model_.name() + "_step";

    out_.report.model = model_.name();
    out_.report.tool = config_.tool_name;
    out_.report.isa = config_.isa != nullptr ? config_.isa->name : "";
    out_.report.actor_count = model_.actor_count();
    out_.report.phases.push_back({"resolve", resolve_ms_});

    Stopwatch phase;
    build_regions();
    order_ = emission_order(model_, regions_);
    finish_phase("regions", phase);
    select_intensive_implementations();
    finish_phase("intensive_select", phase);
    plan_folding();
    plan_buffers();
    finish_phase("plan", phase);
    synthesize_regions();
    finish_phase("batch_synth", phase);
    emit_header();
    emit_kernel_sources();
    emit_init();
    emit_step();
    finish_phase("emit", phase);
    const cgir::PassStats stats = run_pass_pipeline();
    finish_phase("opt", phase);
    finish_unit(stats);

    out_.report.emit_bytes = source_.size();
    out_.report.static_buffer_bytes = out_.static_buffer_bytes;
    out_.report.fused_regions = out_.fused_regions;

    out_.source = std::move(source_);
    return std::move(out_);
  }

 private:
  /// Closes one report phase: records the elapsed time and restarts `timer`.
  void finish_phase(const char* name, Stopwatch& timer) {
    out_.report.phases.push_back({name, timer.elapsed_seconds() * 1e3});
    timer.reset();
  }

  // ------------------------------------------------------------------
  // Planning
  // ------------------------------------------------------------------

  void build_regions() {
    if (config_.batch_mode == BatchMode::kRegions) {
      require(config_.isa != nullptr, "BatchMode::kRegions needs an ISA");
      if (config_.opt_level >= 1) {
        narrow_model();
      } else {
        regions_ = find_batch_regions(model_, *config_.isa);
      }
    } else if (config_.batch_mode == BatchMode::kScattered) {
      require(config_.isa != nullptr, "BatchMode::kScattered needs an ISA");
      // One region per batch actor: each actor gets its own load/compute/
      // store loop — the "scattered SIMD" the paper attributes to Simulink
      // Coder on Intel.
      std::vector<BatchRegion> grouped = find_batch_regions(model_, *config_.isa);
      for (const BatchRegion& region : grouped) {
        for (ActorId id : region.actors) {
          regions_.push_back(singleton_batch_region(model_, id));
        }
      }
    }
    for (size_t r = 0; r < regions_.size(); ++r) {
      for (ActorId id : regions_[r].actors) {
        region_of_[id] = static_cast<int>(r);
      }
    }
    // Predict which regions Algorithm 2 will vectorize (the shared helper
    // mirrors its early exits) so interior signals — which live entirely in
    // vector registers — get no memory buffer.
    for (const BatchRegion& region : regions_) {
      const RegionVectorPlan plan = plan_region_vectorization(
          region, config_.isa->capability(),
          config_.batch_options.min_nodes_for_simd);
      if (!plan.viable) continue;
      for (const auto& [actor, node_index] : region.node_of) {
        if (!region.graph.is_output(node_index)) register_only_.insert(actor);
      }
    }
  }

  /// Range-driven lane narrowing (analysis/narrow.hpp, -O1 and up): the
  /// model is rewritten before anything is lowered, and its regions are
  /// the narrowed chains.
  void narrow_model() {
    analysis::NarrowingResult narrowed = analysis::narrow_lanes(
        model_, *config_.isa, config_.batch_options.min_nodes_for_simd);
    regions_ = std::move(narrowed.regions);
    for (const analysis::Diagnostic& diag : narrowed.remarks.diagnostics()) {
      out_.report.diagnostics.push_back(
          {diag.code, std::string(severity_name(diag.severity)),
           diag.location, diag.message});
    }
    out_.report.range_ran = true;
    out_.report.range_actors_analyzed = narrowed.ranges.actors_analyzed;
    out_.report.range_bounded_outputs = narrowed.ranges.bounded_outputs;
    out_.report.range_widened_delays = narrowed.ranges.widened_delays;
    out_.report.regions_narrowed = narrowed.regions_narrowed;
    out_.report.narrowing_blocked = narrowed.narrowing_blocked;
  }

  void select_intensive_implementations() {
    const kernels::CodeLibrary& library = kernels::CodeLibrary::instance();
    synth::SelectionHistory* history =
        config_.history != nullptr ? config_.history : &local_history_;
    // Algorithm 1 in model order; the memo makes duplicate (type, dtype,
    // shapes) keys share one measurement.
    for (const Actor& actor : model_.actors()) {
      if (classify(model_, actor.id()) != ActorKind::kIntensive) continue;
      const DataType dtype = actor.input(0).type;
      obs::ReportIntensive entry;
      entry.actor = actor.name();
      entry.actor_type = actor.type();
      entry.dtype = std::string(short_name(dtype));
      const kernels::KernelImpl* impl = nullptr;
      if (config_.select_intensive) {
        const synth::IntensiveSelection selection =
            memo_.select(actor, *history);
        impl = selection.impl;
        entry.selected = true;
        entry.from_history = selection.from_history;
        for (const auto& [id, seconds] : selection.measured_costs) {
          const int samples = selection.timed_samples.at(id);
          entry.candidates.push_back(
              {id, seconds * 1e3, samples, /*screened=*/samples == 0});
        }
        if (!selection.failures.empty()) {
          // Degraded mode: the run survived candidate failures — record
          // every one so report readers can see the output is lossy.
          obs::ReportFallback fallback;
          fallback.actor = actor.name();
          fallback.stage = "precalc";
          fallback.impl = impl->id;
          fallback.reference_fallback = selection.degraded;
          for (const synth::CandidateFailure& failure : selection.failures) {
            fallback.failures.push_back({failure.impl, failure.reason});
          }
          out_.report.degraded.push_back(std::move(fallback));
        }
      } else {
        impl = &library.general_implementation(actor.type(), dtype);
      }
      entry.impl = impl->id;
      out_.report.intensive.push_back(std::move(entry));
      intensive_impl_[actor.id()] = impl;
      out_.intensive_choices[actor.name()] = impl->id;
      kernel_sources_.insert(impl->source_key);
    }
  }

  /// Runs Algorithm 2 over every batch region and caches the results in
  /// region order; emit_step() then merges them.  Buffer names are planned
  /// by the time this runs.
  void synthesize_regions() {
    region_synth_.reserve(regions_.size());
    for (const BatchRegion& region : regions_) {
      region_synth_.push_back(synth::synthesize_batch(
          model_, region, *config_.isa,
          [this](ActorId id, int port) { return buffer_name_.at({id, port}); },
          config_.batch_options));
    }
  }

  /// Expression folding: single-consumer scalar elementwise/constant signals
  /// are inlined into their consumer instead of materialized.
  void plan_folding() {
    if (!config_.fold_scalar_expressions) return;
    for (const Actor& actor : model_.actors()) {
      if (actor.output_count() != 1) continue;
      if (actor.type() == "Inport" || actor.type() == "UnitDelay") continue;
      if (region_of_.count(actor.id())) continue;
      const PortSpec& out = actor.output(0);
      if (out.shape.elements() != 1 || is_complex(out.type)) continue;
      const bool is_const = actor.type() == "Constant";
      const bool is_elementwise = actor_type_info(actor.type()).elementwise;
      if (!is_const && !is_elementwise) continue;
      const auto consumers = model_.outgoing(actor.id(), 0);
      if (consumers.size() != 1) continue;
      // Never fold into a delay (its update happens at end of step) or into
      // an intensive kernel call (needs a real buffer).
      const Actor& consumer = model_.actor(consumers[0].dst);
      if (consumer.type() == "UnitDelay" ||
          actor_type_info(consumer.type()).intensive) {
        continue;
      }
      folded_.insert(actor.id());
    }
  }

  bool is_folded(ActorId id) const { return folded_.count(id) != 0; }

  void plan_buffers() {
    // Inports bind to the step's input pointers.
    for (ActorId id : model_.inports()) {
      buffer_name_[{id, 0}] = "in_" + sanitize_identifier(model_.actor(id).name());
    }

    // Signals consumed by an Outport can be produced directly into the
    // caller's output buffer, eliminating the boundary memcpy.  (Inport,
    // Constant and UnitDelay sources keep their own storage: the first is
    // read-only, the latter two persist across steps.)
    for (ActorId id : model_.outports()) {
      const Connection conn = *model_.incoming(id, 0);
      const Actor& src = model_.actor(conn.src);
      if (src.type() == "Inport" || src.type() == "Constant" ||
          src.type() == "UnitDelay" || is_folded(conn.src)) {
        continue;
      }
      const SignalId signal{conn.src, conn.src_port};
      if (buffer_name_.count(signal)) continue;  // already aliased
      buffer_name_[signal] = "out_" + sanitize_identifier(model_.actor(id).name());
      direct_outports_.insert(id);
    }

    // Every other signal gets its own `sig_` / `dly_` buffer.  With
    // reuse_buffers (Simulink Coder's output variable reuse, which HCG
    // inherits) the non-persistent ones are marked arena-eligible, and the
    // cgir arena pass rebinds those whose live ranges do not overlap onto
    // shared slots once the passes have settled the final statement order.
    for (const EmissionItem& item : order_) {
      std::vector<ActorId> producers;
      if (item.actor != kNoActor) {
        producers.push_back(item.actor);
      } else {
        producers = regions_[static_cast<size_t>(item.region)].actors;
      }
      for (ActorId id : producers) {
        const Actor& actor = model_.actor(id);
        if (actor.type() == "Inport" || is_folded(id)) continue;
        if (register_only_.count(id)) continue;  // lives in vector registers
        for (int port = 0; port < actor.output_count(); ++port) {
          if (buffer_name_.count({id, port})) continue;  // output-aliased
          const bool reusable = config_.reuse_buffers &&
                                actor.type() != "Constant" &&
                                actor.type() != "UnitDelay";
          std::string name = (actor.type() == "UnitDelay" ? "dly_" : "sig_") +
                             sanitize_identifier(actor.name());
          if (port != 0) name += "_p" + std::to_string(port);
          const Actor* const_src = actor.type() == "Constant" ? &actor : nullptr;
          declare_buffer(name, actor.output(port), const_src,
                         /*arena_eligible=*/reusable);
          buffer_name_[{id, port}] = name;
        }
      }
    }
  }

  /// Declares a static buffer in the translation unit.
  void declare_buffer(const std::string& name, const PortSpec& spec,
                      const Actor* constant_source, bool arena_eligible) {
    cgir::BufferDecl decl;
    decl.name = name;
    decl.ctype = std::string(c_name(spec.type));
    decl.components = components_of(spec);
    decl.elem_bytes = byte_width(component_type(spec.type));
    decl.arena_eligible = arena_eligible;
    if (constant_source != nullptr) {
      decl.is_const = true;
      Tensor value = constant_tensor(*constant_source);
      std::vector<std::string> literals;
      literals.reserve(static_cast<std::size_t>(decl.components));
      for (int i = 0; i < decl.components; ++i) {
        literals.push_back(component_literal(value, i));
      }
      decl.init_values = join(literals, ", ");
    }
    tu_.buffers.push_back(std::move(decl));
  }

  /// Scalar components of a signal (a complex element holds two).
  static int components_of(const PortSpec& spec) {
    return spec.shape.elements() * (is_complex(spec.type) ? 2 : 1);
  }

  static std::string component_literal(const Tensor& value, int i) {
    const DataType comp = component_type(value.type());
    // Complex tensors store interleaved components, so index i is already
    // the i-th component either way.
    if (comp == DataType::kFloat32) {
      return std::to_string(value.as<float>()[i]) + "f";
    }
    if (comp == DataType::kFloat64) return std::to_string(value.as<double>()[i]);
    return std::to_string(value.get_int(i));
  }

  // ------------------------------------------------------------------
  // Expressions
  // ------------------------------------------------------------------

  /// C expression for one element of a signal: buffer[index] or, for folded
  /// producers, the inlined expression.
  Pieces element_expr(const SignalId& signal, int index) {
    const Actor& producer = model_.actor(signal.first);
    if (is_folded(signal.first)) return folded_expr(producer);
    return {element(buffer_name_.at(signal), false, index)};
  }

  Pieces folded_expr(const Actor& actor) {
    if (actor.type() == "Constant") {
      Tensor value = constant_tensor(actor);
      return {Piece::literal("(" + std::string(c_name(actor.output(0).type)) +
                             ")" + component_literal(value, 0))};
    }
    // The cast re-narrows the intermediate to the signal's declared type.
    // C integer promotion would otherwise leak un-wrapped sub-int values
    // (e.g. u16 Shl) into the consumer, where a store into a typed buffer
    // no longer truncates them.
    return "((" + std::string(c_name(actor.output(0).type)) + ")(" +
           elementwise_expr(actor, 0) + "))";
  }

  /// The scalar expression computing one element of an elementwise actor.
  Pieces elementwise_expr(const Actor& actor, int index) {
    const BatchOp op = batch_op_for_actor_type(actor.type());
    const Pieces a = element_expr(source_of(actor.id(), 0), index);
    Pieces b, c;
    if (arity(op) >= 3) {
      c = element_expr(source_of(actor.id(), 2), index);
    }
    if (arity(op) >= 2) {
      b = element_expr(source_of(actor.id(), 1), index);
    } else if (has_immediate(op)) {
      b += std::to_string(actor.int_param("amount"));
    } else if (op == BatchOp::kMulC) {
      b += isa::scalar_literal(actor.output(0).type,
                               parse_double(actor.param("gain")));
    } else if (op == BatchOp::kAddC) {
      b += isa::scalar_literal(actor.output(0).type,
                               parse_double(actor.param("bias")));
    }
    return synth::scalar_c_expr(op, actor.output(0).type, a, b, c);
  }

  SignalId source_of(ActorId id, int port) const {
    const Connection conn = *model_.incoming(id, port);
    return {conn.src, conn.src_port};
  }

  // ------------------------------------------------------------------
  // Lowering
  // ------------------------------------------------------------------

  /// Appends a statement to the step body.
  void push(cgir::Stmt stmt) { tu_.step.body.push_back(std::move(stmt)); }

  void emit_header() {
    tu_.header_lines.push_back("/* Generated by " + config_.tool_name +
                               " for model '" + model_.name() + "'.");
    tu_.header_lines.push_back(" * ABI: void " + out_.init_symbol + "(void);");
    tu_.header_lines.push_back(" *      void " + out_.step_symbol +
                               "(const void* const* inputs, void* const* "
                               "outputs); */");
    tu_.header_lines.push_back("#include <stdint.h>");
    tu_.header_lines.push_back("#include <string.h>");
    tu_.header_lines.push_back("#include <math.h>");
    const bool may_use_simd =
        config_.isa != nullptr &&
        (config_.batch_mode == BatchMode::kScattered ||
         config_.batch_mode == BatchMode::kRegions) &&
        !regions_.empty();
    if (may_use_simd) {
      if (config_.isa->simulated) {
        tu_.header_lines.push_back("#include \"" + config_.isa->header + "\"");
      } else {
        tu_.header_lines.push_back("#include <" + config_.isa->header + ">");
      }
      out_.compile_flags = config_.isa->compile_flags;
      out_.needs_neon_sim = config_.isa->simulated;
    }
    tu_.header_lines.push_back("");
  }

  void emit_kernel_sources() {
    if (kernel_sources_.empty()) return;
    const kernels::CodeLibrary& library = kernels::CodeLibrary::instance();
    for (const std::string& key : kernel_sources_) {
      tu_.kernel_sources.push_back(std::string(library.source(key)));
    }
  }

  void emit_init() {
    tu_.init.opener = "void " + out_.init_symbol + "(void) {";
    for (const Actor& actor : model_.actors()) {
      if (actor.type() != "UnitDelay") continue;
      const std::string& name = buffer_name_.at({actor.id(), 0});
      tu_.init.body.push_back(cgir::Stmt::line(
          {Piece::literal("memset("), Piece::buffer(name, true),
           Piece::literal(", 0, sizeof("), Piece::buffer(name, true),
           Piece::literal("));")}));
    }
  }

  void emit_step() {
    tu_.step.opener = "void " + out_.step_symbol +
                      "(const void* const* inputs, void* const* outputs) {";

    const std::vector<ActorId> ins = model_.inports();
    for (size_t i = 0; i < ins.size(); ++i) {
      const Actor& port = model_.actor(ins[i]);
      const std::string ctype(c_name(port.output(0).type));
      const std::string& name = buffer_name_.at({ins[i], 0});
      // The pointer local is a definition the verifier tracks: later accesses
      // to `name` resolve against this line, not a buffer declaration.
      push(pointer_decl(ctype, name, /*input=*/true, i));
    }
    const std::vector<ActorId> outs = model_.outports();
    for (size_t i = 0; i < outs.size(); ++i) {
      const Actor& port = model_.actor(outs[i]);
      const std::string ctype(c_name(port.input(0).type));
      push(pointer_decl(ctype, "out_" + sanitize_identifier(port.name()),
                        /*input=*/false, i));
    }
    push(cgir::Stmt::text_line(""));

    for (const EmissionItem& item : order_) {
      if (item.region >= 0) {
        emit_region(static_cast<size_t>(item.region));
      } else {
        emit_actor(model_.actor(item.actor));
      }
    }

    flush_delay_updates();
  }

  /// `const ctype* name = (const ctype*)inputs[slot];` for an input, the
  /// same without const from outputs[] for an output.
  static cgir::Stmt pointer_decl(const std::string& ctype,
                                 const std::string& name, bool input,
                                 size_t slot) {
    const std::string type = (input ? "const " : "") + ctype;
    cgir::Stmt stmt = cgir::Stmt::line(
        {Piece::literal(type + "* "), Piece::local(name),
         Piece::literal(" = (" + type + "*)" + (input ? "inputs" : "outputs") +
                        "[" + std::to_string(slot) + "];")});
    stmt.defines = name;
    stmt.array_ctype = ctype;
    return stmt;
  }

  /// Emits the end-of-step delay register copies.  A delay's register is
  /// also its output buffer, so when one delay feeds another the reader's
  /// copy must land before the producer's register is overwritten — i.e.
  /// updates run in reverse dependency order (a chain d0 -> d1 updates d1
  /// first).  A direct delay-to-delay cycle has no valid order; it is
  /// broken by snapshotting one register into a step-local temporary.
  void flush_delay_updates() {
    if (delay_updates_.empty()) return;
    push(cgir::Stmt::text_line("/* delay state updates */"));
    std::vector<DelayUpdate> pending = std::move(delay_updates_);
    delay_updates_.clear();
    int snapshots = 0;
    while (!pending.empty()) {
      // Pick an update whose register no other pending update still reads.
      size_t pick = pending.size();
      for (size_t i = 0; i < pending.size() && pick == pending.size(); ++i) {
        bool read_later = false;
        for (size_t j = 0; j < pending.size(); ++j) {
          if (j != i && pending[j].src == pending[i].state) read_later = true;
        }
        if (!read_later) pick = i;
      }
      if (pick == pending.size()) {
        // Every register is still read by some other update: a cycle.
        // Snapshot the first register and retarget its readers.
        const DelayUpdate& blocked = pending.front();
        const std::string snap =
            "dly_snap" + std::to_string(snapshots++);
        cgir::Stmt decl = cgir::Stmt::line(
            {Piece::literal(blocked.c_type + " "), Piece::local(snap),
             Piece::literal("[" + std::to_string(blocked.components) + "];")});
        decl.defines = snap;
        push(std::move(decl));
        push(memcpy_stmt(snap, blocked.state, blocked.components,
                         blocked.c_type));
        for (DelayUpdate& u : pending) {
          if (u.src == blocked.state) u.src = snap;
        }
        continue;
      }
      const DelayUpdate& u = pending[pick];
      push(memcpy_stmt(u.state, u.src, u.components, u.c_type));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }

  /// `memcpy(dst, src, components * sizeof(c_type));`
  static cgir::Stmt memcpy_stmt(const std::string& dst, const std::string& src,
                                int components, const std::string& c_type) {
    return cgir::Stmt::line(
        {Piece::literal("memcpy("), Piece::buffer(dst, true),
         Piece::literal(", "), Piece::buffer(src, false),
         Piece::literal(", " + std::to_string(components) + " * sizeof(" +
                        c_type + "));")});
  }

  void emit_region(size_t region_index) {
    const BatchRegion& region = regions_[region_index];
    synth::BatchSynthResult& result = region_synth_[region_index];

    obs::ReportRegion entry;
    for (ActorId id : region.actors) {
      entry.actors.push_back(model_.actor(id).name());
    }
    entry.nodes = region.graph.node_count();
    entry.used_simd = result.used_simd;
    entry.batch_size = result.batch_size;
    entry.batch_count = result.batch_count;
    entry.scalar_remainder = result.offset;
    entry.predicated = result.predicated;
    entry.instructions = result.instructions_used;
    out_.report.regions.push_back(std::move(entry));

    if (!result.used_simd) {
      // Algorithm 2 lines 3-4: conventionalTranslate.
      for (ActorId id : region.actors) emit_actor(model_.actor(id));
      return;
    }
    for (std::string& name : result.instructions_used) {
      out_.simd_instructions.push_back(std::move(name));
    }
    if (region.actors.size() > 1) ++out_.fused_regions;
    if (result.predicated) ++out_.report.loops_predicated;
    for (cgir::Stmt& loop : result.loops) push(std::move(loop));
  }

  void emit_actor(const Actor& actor) {
    const std::string& type = actor.type();
    if (type == "Inport" || type == "Constant") return;
    if (is_folded(actor.id())) return;

    if (type == "Outport") {
      if (direct_outports_.count(actor.id())) {
        return;  // the producer already wrote into the output buffer
      }
      const SignalId src = source_of(actor.id(), 0);
      const std::string out_name = "out_" + sanitize_identifier(actor.name());
      if (is_folded(src.first)) {
        push(cgir::Stmt::line(Pieces{Piece::element_at(out_name, true, 0)} +
                              " = " + folded_expr(model_.actor(src.first)) +
                              ";"));
      } else {
        const PortSpec& spec = actor.input(0);
        push(memcpy_stmt(out_name, buffer_name_.at(src),
                             components_of(spec),
                             std::string(c_name(spec.type))));
      }
      return;
    }

    if (type == "UnitDelay") {
      // Output buffer *is* the state; schedule the update for end-of-step
      // (flush_delay_updates orders the copies so chained delays keep their
      // full latency).
      const SignalId src = source_of(actor.id(), 0);
      const PortSpec& spec = actor.output(0);
      delay_updates_.push_back({buffer_name_.at({actor.id(), 0}),
                                buffer_name_.at(src), components_of(spec),
                                std::string(c_name(spec.type))});
      return;
    }

    const ActorTypeInfo& info = actor_type_info(type);
    if (info.elementwise) {
      emit_elementwise(actor);
      return;
    }
    if (info.intensive) {
      emit_intensive(actor);
      return;
    }
    throw CodegenError("no conventional translation for actor type '" + type +
                       "'");
  }

  void emit_elementwise(const Actor& actor) {
    const int n = actor.output(0).shape.elements();
    const std::string dst = buffer_name_.at({actor.id(), 0});
    const bool unroll = config_.batch_mode == BatchMode::kUnrollThenLoops &&
                        n <= kUnrollThreshold;
    if (n == 1) {
      push(element_assign(actor, dst, 0));
    } else if (unroll) {
      // Paper Figure 2: one statement per element.
      for (int i = 0; i < n; ++i) {
        push(element_assign(actor, dst, i));
      }
    } else {
      cgir::Stmt loop;
      loop.kind = cgir::Stmt::Kind::kLoop;
      loop.end = n;
      // At -O2 conventional scalar loops join the fusion candidate set: the
      // same-shape fuser merges equal-length chains, and cross-scale fusion
      // strip-mines the survivors into adjacent vector loops.  These are
      // exactly the loops the HCG4xx SIMD-blocker remarks (no-simd-op,
      // scale-mismatch, ...) excluded from batch regions.  Kept off below
      // -O2 so -O0/-O1 output stays pinned.
      loop.fusible = config_.opt_level >= 2;
      loop.body.push_back(element_assign(actor, dst, kLoopIndex));
      push(std::move(loop));
    }
  }

  /// `dst[index] = <elementwise expression>;`
  cgir::Stmt element_assign(const Actor& actor, const std::string& dst,
                            int index) {
    return cgir::Stmt::line(Pieces{element(dst, true, index)} + " = " +
                            elementwise_expr(actor, index) + ";");
  }

  void emit_intensive(const Actor& actor) {
    const kernels::KernelImpl& impl = *intensive_impl_.at(actor.id());
    const Piece out = Piece::buffer(buffer_name_.at({actor.id(), 0}), true);
    const Piece in0 =
        Piece::buffer(buffer_name_.at(source_of(actor.id(), 0)), false);
    const Piece inverse = Piece::literal(
        actor.type() == "IFFT" || actor.type() == "IFFT2D" ? "1" : "0");
    const Shape& shape0 = actor.input(0).shape;
    const Piece n0 = Piece::literal(std::to_string(shape0.elements()));
    auto dim = [](const Shape& shape, int d) {
      return Piece::literal(std::to_string(shape.dims[static_cast<size_t>(d)]));
    };
    auto in1 = [&] {
      return Piece::buffer(buffer_name_.at(source_of(actor.id(), 1)), false);
    };

    std::vector<Piece> args;
    switch (impl.sig) {
      case kernels::KernelSig::kFft1D:
        args = {in0, out, n0, inverse};
        break;
      case kernels::KernelSig::kFft2D:
        args = {in0, out, dim(shape0, 0), dim(shape0, 1), inverse};
        break;
      case kernels::KernelSig::kXform1D:
        args = {in0, out, n0};
        break;
      case kernels::KernelSig::kXform2D:
        args = {in0, out, dim(shape0, 0), dim(shape0, 1)};
        break;
      case kernels::KernelSig::kConv1D:
        args = {in0, n0, in1(),
                Piece::literal(std::to_string(actor.input(1).shape.elements())),
                out};
        break;
      case kernels::KernelSig::kConv2D: {
        const Shape& shape1 = actor.input(1).shape;
        args = {in0, dim(shape0, 0), dim(shape0, 1), in1(),
                dim(shape1, 0), dim(shape1, 1), out};
        break;
      }
      case kernels::KernelSig::kMatMul:
        args = {in0, in1(), out, dim(shape0, 0)};
        break;
      case kernels::KernelSig::kMatInv:
      case kernels::KernelSig::kMatDet:
        args = {in0, out, dim(shape0, 0)};
        break;
    }
    if (args.empty()) {
      throw CodegenError("emit_intensive: bad kernel signature");
    }
    Pieces call = {Piece::literal(impl.c_function + "(")};
    for (size_t k = 0; k < args.size(); ++k) {
      if (k > 0) call += ", ";
      call += Pieces{std::move(args[k])};
    }
    call += ");";
    cgir::Stmt stmt = cgir::Stmt::line(std::move(call));
    if (config_.profile_gen) {
      stmt.prof_tag = "intensive:" + actor.name() + ":" + impl.id;
    }
    push(std::move(stmt));
  }

  // ------------------------------------------------------------------
  // Passes + printing
  // ------------------------------------------------------------------

  /// Runs the cgir passes over the lowered unit: the whole "opt" phase.
  cgir::PassStats run_pass_pipeline() {
    const bool verify = config_.verify_cgir || analysis::verify_env_enabled();
    if (verify) {
      // Checkpoint "lower": the freshly lowered unit, before any pass.
      analysis::require_valid_unit(tu_, cgir::PassStats{}, "lower");
      out_.report.verified_passes.emplace_back("lower");
    }
    if (config_.dump_cgir_after == "lower") {
      out_.cgir_dump_after = cgir::dump(tu_);
    }
    cgir::PassOptions options;
    options.opt_level = config_.opt_level;
    if (verify || !config_.dump_cgir_after.empty()) {
      options.after_pass = [this, verify](std::string_view pass,
                                          const cgir::TranslationUnit& tu,
                                          const cgir::PassStats& pass_stats) {
        if (verify) {
          analysis::require_valid_unit(tu, pass_stats, pass);
          out_.report.verified_passes.emplace_back(pass);
        }
        if (pass == config_.dump_cgir_after) {
          out_.cgir_dump_after = cgir::dump(tu);
        }
      };
    }
    return cgir::run_passes(tu_, options);
  }

  /// Instruments and prints the optimized unit and records what the passes
  /// did; timed by no phase.
  void finish_unit(const cgir::PassStats& stats) {
    if (config_.profile_gen) {
      // After the passes (the instrumented loops are the final ones) and
      // after the last verifier checkpoint (the injected HCG_PROF_* text
      // statements are not part of the verified dataflow).
      cgir::ProfileOptions profile_options;
      profile_options.model_name = model_.name();
      out_.profile_sites = cgir::instrument_profiling(tu_, profile_options);
    }
    // Checkpoint "final": the unit exactly as printed.
    if (config_.dump_cgir_after == "final") {
      out_.cgir_dump_after = cgir::dump(tu_);
    }
    source_ = cgir::print(tu_);

    out_.static_buffer_bytes = 0;
    for (const cgir::BufferDecl& decl : tu_.buffers) {
      out_.static_buffer_bytes += decl.bytes();
    }

    out_.report.opt_level = config_.opt_level;
    out_.report.loops_fused = stats.loops_fused;
    out_.report.copies_elided = stats.copies_elided;
    out_.report.arena_bytes_saved = stats.arena_bytes_saved;
    out_.report.cross_scale_fused = stats.cross_scale_fused;
    out_.report.strips_localized = stats.strips_localized;
    for (const cgir::PassTime& pass : stats.pass_times) {
      out_.report.passes.push_back({std::string(pass.name), pass.ms});
    }

    // The -O2 cross-scale remark, mirrored into the report like lint
    // findings so a --report consumer sees where the pass fired.
    if (stats.cross_scale_fused > 0) {
      obs::ReportDiagnostic diag;
      diag.code = "HCG408";
      diag.severity = "remark";
      diag.location = model_.name() + ": step";
      diag.message = std::to_string(stats.cross_scale_fused) +
                     " scalar loop(s) strip-mined and fused across a scale "
                     "boundary";
      out_.report.diagnostics.push_back(std::move(diag));
    }
  }

  // ------------------------------------------------------------------

  Model model_;
  EmitConfig config_;
  GeneratedCode out_;
  std::string source_;
  cgir::TranslationUnit tu_;
  std::vector<BatchRegion> regions_;
  std::map<ActorId, int> region_of_;
  /// Per-region Algorithm 2 results, index-aligned with regions_.
  std::vector<synth::BatchSynthResult> region_synth_;
  std::vector<EmissionItem> order_;
  /// In-run memo + fallback history for Algorithm 1 (used when the caller
  /// provides no persistent history).
  synth::SelectionMemo memo_;
  synth::SelectionHistory local_history_;
  std::map<ActorId, const kernels::KernelImpl*> intensive_impl_;
  std::set<std::string> kernel_sources_;
  std::set<ActorId> folded_;
  std::set<ActorId> register_only_;
  std::set<ActorId> direct_outports_;
  std::map<SignalId, std::string> buffer_name_;
  /// One pending end-of-step register copy (see flush_delay_updates()).
  struct DelayUpdate {
    std::string state;   // the delay's register/output buffer (written)
    std::string src;     // the buffer feeding the delay's input (read)
    int components = 0;  // scalar components to copy
    std::string c_type;  // element C type for sizeof
  };
  std::vector<DelayUpdate> delay_updates_;
  double resolve_ms_ = 0.0;
};

}  // namespace

GeneratedCode emit_model(const Model& model, const EmitConfig& config) {
  return Emitter(model, config).run();
}

}  // namespace hcg::codegen
