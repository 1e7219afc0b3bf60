// Machine-state types of the simulation engine: the token, the dense
// explicit-token-store frames that replace hash-map matching slots, and
// the context / loop-instance bookkeeping (iteration contexts, k-bound
// credits, retirement).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "machine/exec.hpp"
#include "machine/machine.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace ctdf::machine {

/// A token: (context, instruction, port, value). Fields are ordered so
/// the record packs into 24 bytes: tokens are the elements of every
/// pending-queue bucket.
struct Token {
  std::uint32_t ctx = 0;
  dfg::NodeId node;
  std::int64_t value = 0;
  std::uint16_t port = 0;
  /// True for a loop-entry forwarding re-delivered after a k-bound
  /// stall: it was already consumed from its source context when it
  /// was buffered, so a successful re-fire must not consume it again.
  bool requeued = false;
  /// True for a barrier loop entry woken after a frame-capacity stall:
  /// its operands are still matched in the frame, so delivery must
  /// re-ready the op without filing a slot.
  bool refire = false;
};
static_assert(sizeof(Token) == 24);

/// One loop invocation: the link to its first iteration's context and
/// its k-bound state.
struct LoopInstance {
  std::uint32_t invocation = 0;  ///< context the loop was entered from
  std::uint32_t first = 0;       ///< iteration 0's context; 0 = not yet
  unsigned in_flight = 0;        ///< allocated, not yet retired iterations
  std::vector<Token> stalled;    ///< forwardings blocked by the k-bound
};

/// An iteration context — the role Monsoon frames play.
struct CtxInfo {
  cfg::LoopId loop;  ///< invalid for the root context
  /// The next iteration of `loop` (the successor link the loop-entry
  /// operator hands the next iteration); 0 = not allocated yet. The
  /// root context 0 is never a successor.
  std::uint32_t next = 0;
  /// The invocation this iteration belongs to; null for the root.
  /// Points into ContextState's instance map, whose nodes never move.
  LoopInstance* instance = nullptr;
};

/// Deferred I-structure readers per cell: (context, fetch node).
using DeferredMap =
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint32_t, dfg::NodeId>>>;

/// Dense per-context matching frames (the explicit token store). Each
/// context owns one frame: a value slot plus presence bit per strict
/// input port (laid out by ExecProgram), and a per-framed-op state word
/// that is kFrameNotCreated until the first token arrives and counts
/// the missing inputs afterwards.
///
/// A frame starts as a copy of the program's blank frame: literal ports
/// filled and present, token ports absent, every state not created. So
/// creating an activation is one state write, and a firing returns its
/// range to blank by clearing only its token ports' presence bits (the
/// program's precomputed token masks); literal values and bits are
/// never touched after the copy. A token on a literal port finds its
/// bit set and is a slot collision, as it always was.
///
/// Storage is a slab arena: frames are fixed-size records carved out of
/// large chunks, so creating an iteration context costs a bump-pointer
/// step and one copy of the blank record instead of three vector
/// allocations. A frame whose context retires can be handed back via
/// recycle(); the freelist re-issues it to the next iteration as it is.
/// A recycled frame is blank: a context retires only with zero live
/// tokens, so every activation created in it has fired and released
/// its range, and BlobCodec guarantees that ranges are consecutive and
/// never overlap, so no release touches another op's bits. Retired
/// contexts can transiently revive (an inner loop exiting later
/// re-injects tokens); a revived context simply draws a fresh frame.
/// Frames are allocated lazily on first delivery.
class FrameStore {
 public:
  explicit FrameStore(const ExecProgram& ep)
      : ep_(&ep),
        blank_(ep.blank_frame()),
        slot_literals_(ep.slot_literals()),
        masks_(ep.token_masks().data()),
        bits_at_(ep.presence_offset() * sizeof(std::uint64_t)),
        states_at_(ep.state_offset() * sizeof(std::uint64_t)),
        stride_(std::max<std::size_t>(blank_.size(), 1) *
                sizeof(std::uint64_t)),
        frames_per_chunk_(std::max<std::size_t>(1, kChunkBytes / stride_)) {
    add_context(0);  // the root
  }

  enum class Deliver : std::uint8_t {
    kStored,
    kCompleted,
    kCollision,
    /// Checking mode only: the slot's permission tag was already
    /// written — two tokens on one arc (integrity/double-write).
    kTagOccupied,
    /// Checking mode only: a token arrived for an activation whose
    /// matching count is already satisfied but which has not fired —
    /// the op's recorded arity undercounts its arcs, so the pending
    /// firing would consume an empty slot (integrity/read-empty seen
    /// from the delivery side).
    kTagOverrun,
  };

  /// Engages the shadow permission tags (--check=integrity): one tag
  /// byte per value slot, cycling empty → written → (released back to)
  /// empty, kept outside the slab so the off-mode frame layout is
  /// untouched. A literal port's tag stays written, as its presence bit
  /// stays set. Call before the first delivery.
  void enable_checking() { checking_ = true; }

  /// Files one token into (ctx, op)'s slot range.
  [[gnu::always_inline]] Deliver deliver(std::uint32_t ctx, const ExecOp& op,
                                         std::uint16_t port,
                                         std::int64_t value) {
    std::byte* f = frame(ctx);
    std::uint16_t& state = states(f)[op.strict_index];
    // The range is blank until its first token: creating is one write.
    if (state == kFrameNotCreated) state = op.consumed_inputs;
    const std::uint32_t slot = op.frame_base + port;
    if (checking_) {
      // Tag check first: with checking on, a second token on one arc is
      // diagnosed as the integrity violation it is, not the engine-level
      // slot collision it would degenerate into.
      std::uint8_t& tag = tag_row(ctx)[slot];
      if (tag == kTagWritten) return Deliver::kTagOccupied;
      if (state == 0) return Deliver::kTagOverrun;
      tag = kTagWritten;
    }
    if (bit_test(f, slot)) return Deliver::kCollision;
    values(f)[slot] = value;
    bit_set(f, slot);
    return --state == 0 ? Deliver::kCompleted : Deliver::kStored;
  }

  /// The frame holding (ctx, op)'s completed activation: the one lookup
  /// a strict firing makes, for inputs() and release().
  [[nodiscard]] std::byte* completed(std::uint32_t ctx,
                                     const ExecOp& op) const {
    std::byte* f = ctx < frames_.size() ? frames_[ctx] : nullptr;
    CTDF_ASSERT(f && states(f)[op.strict_index] == 0);
    return f;
  }

  /// The matched input values, in place. They outlive release(): the
  /// slots change only when a token is next filed into this frame.
  [[nodiscard]] const std::int64_t* inputs(const std::byte* f,
                                           const ExecOp& op) const {
    return values(f) + op.frame_base;
  }

  /// The op fired: its range returns to blank (state not created, token
  /// ports absent) and becomes re-creatable. With checking on, first
  /// sweeps the range's permission tags — every port must be written (a
  /// token arrived, or it is a literal) before the firing may consume
  /// it. Returns the first port whose tag is still empty
  /// (integrity/read-empty), or -1 when the sweep passes; always -1
  /// with checking off. The token ports' tags return to empty either
  /// way.
  int release(std::byte* f, std::uint32_t ctx, const ExecOp& op) {
    states(f)[op.strict_index] = kFrameNotCreated;
    if (op.num_inputs <= 64) {
      // At most 64 slots lie in two words.
      std::uint64_t* w = bits(f) + op.frame_base / 64;
      const TokenMask& m = masks_[op.strict_index];
      w[0] &= ~m.first;
      w[1] &= ~m.second;
    } else {
      for (std::uint32_t s = op.frame_base; s < op.frame_base + op.num_inputs;
           ++s)
        if (!slot_literals_[s]) bit_reset(f, s);
    }
    if (!checking_) return -1;
    std::uint8_t* tags = tag_row(ctx) + op.frame_base;
    int missing = -1;
    for (std::uint16_t p = 0; p < op.num_inputs && missing < 0; ++p)
      if (tags[p] != kTagWritten) missing = static_cast<int>(p);
    std::copy_n(slot_literals_.data() + op.frame_base, op.num_inputs, tags);
    return missing;
  }

  /// ContextState allocated `ctx`: make room for its frame, so a
  /// delivery indexes the frame table without growing it.
  void add_context(std::uint32_t ctx) {
    if (ctx >= frames_.size()) frames_.resize(ctx + 1, nullptr);
  }

  /// The context retired: hand its frame back to the freelist (see
  /// class comment). Safe on contexts that never received a strict
  /// token.
  void recycle(std::uint32_t ctx) {
    if (ctx >= frames_.size() || !frames_[ctx]) return;
    free_.push_back(frames_[ctx]);
    frames_[ctx] = nullptr;
  }

  /// Live (created, not yet fired) slots, for diagnostics.
  [[nodiscard]] std::size_t live_slots() const {
    std::size_t n = 0;
    for_each_live([&](std::uint32_t, std::uint32_t, std::uint16_t) { ++n; });
    return n;
  }

  /// f(ctx, op index, missing inputs) per live slot, context-major
  /// ascending — the deterministic scan order of the deadlock report
  /// and the end-of-run pending-store check.
  template <class F>
  void for_each_live(F&& f) const {
    for (std::uint32_t ctx = 0; ctx < frames_.size(); ++ctx) {
      if (!frames_[ctx]) continue;
      const std::uint16_t* st = states(frames_[ctx]);
      for (std::uint32_t i = 0; i < ep_->num_ops(); ++i) {
        const ExecOp& op = ep_->op(i);
        if (!op.framed()) continue;
        if (st[op.strict_index] != kFrameNotCreated)
          f(ctx, i, st[op.strict_index]);
      }
    }
  }

 private:
  static constexpr std::uint8_t kTagEmpty = 0, kTagWritten = 1;
  static_assert(kTagWritten == 1 && kTagEmpty == 0,
                "slot_literals() is the blank tag row");
  /// Arena chunk size; amortizes to ~one allocation per kChunkBytes of
  /// frame traffic (with recycling, usually a handful per run).
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  // Frame record layout at p (ExecProgram::presence_offset and
  // state_offset): values | presence words | state words.
  [[nodiscard]] std::int64_t* values(std::byte* p) const {
    return reinterpret_cast<std::int64_t*>(p);
  }
  [[nodiscard]] const std::int64_t* values(const std::byte* p) const {
    return reinterpret_cast<const std::int64_t*>(p);
  }
  [[nodiscard]] std::uint64_t* bits(std::byte* p) const {
    return reinterpret_cast<std::uint64_t*>(p + bits_at_);
  }
  [[nodiscard]] std::uint16_t* states(std::byte* p) const {
    return reinterpret_cast<std::uint16_t*>(p + states_at_);
  }
  [[nodiscard]] const std::uint16_t* states(const std::byte* p) const {
    return reinterpret_cast<const std::uint16_t*>(p + states_at_);
  }

  void bit_set(std::byte* p, std::uint32_t i) {
    bits(p)[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void bit_reset(std::byte* p, std::uint32_t i) {
    bits(p)[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  [[nodiscard]] bool bit_test(std::byte* p, std::uint32_t i) const {
    return (bits(p)[i >> 6] >> (i & 63)) & 1;
  }

  std::byte* alloc_frame() {
    if (!free_.empty()) {
      // Recycled frames are blank (see class comment).
      std::byte* p = free_.back();
      free_.pop_back();
      return p;
    }
    if (chunks_.empty() || next_in_chunk_ == frames_per_chunk_) {
      chunks_.push_back(std::make_unique_for_overwrite<std::byte[]>(
          stride_ * frames_per_chunk_));
      next_in_chunk_ = 0;
    }
    std::byte* p = chunks_.back().get() + next_in_chunk_++ * stride_;
    std::copy_n(reinterpret_cast<const std::byte*>(blank_.data()),
                blank_.size_bytes(), p);
    return p;
  }

  /// Every context a token names was allocated, so add_context() has
  /// made room for it (_GLIBCXX_ASSERTIONS builds check the index).
  std::byte* frame(std::uint32_t ctx) {
    if (!frames_[ctx]) frames_[ctx] = alloc_frame();
    return frames_[ctx];
  }

  /// The context's shadow tag row (checking mode), created blank (token
  /// ports empty, literal ports written) on first use. Rows stay with
  /// their context across frame recycling: a retiring context has zero
  /// live tokens, hence a blank row, so a revived context finds its row
  /// in the fresh state.
  std::uint8_t* tag_row(std::uint32_t ctx) {
    if (tags_.size() <= ctx) tags_.resize(ctx + 1);
    auto& row = tags_[ctx];
    if (!row) {
      row = std::make_unique_for_overwrite<std::uint8_t[]>(
          slot_literals_.size());
      std::copy_n(slot_literals_.data(), slot_literals_.size(), row.get());
    }
    return row.get();
  }

  const ExecProgram* ep_;
  std::span<const std::uint64_t> blank_;
  std::span<const std::uint8_t> slot_literals_;
  const TokenMask* masks_;
  std::size_t bits_at_;    ///< byte offset of the presence words
  std::size_t states_at_;  ///< byte offset of the state words
  std::size_t stride_;
  std::size_t frames_per_chunk_;
  std::size_t next_in_chunk_ = 0;
  std::vector<std::byte*> frames_;  ///< per-context frame, null = none
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::vector<std::byte*> free_;
  bool checking_ = false;
  std::vector<std::unique_ptr<std::uint8_t[]>> tags_;  ///< per-context tags
};

/// Context allocation, token-liveness accounting, and k-bound credits;
/// the engine supplies only what happens to forwardings released from a
/// stall (a next-cycle pending push).
class ContextState {
 public:
  /// `processors` > 0 places every context on a processing element
  /// once, when it is allocated (by-context placement); 0 keeps no
  /// placement.
  explicit ContextState(unsigned processors = 0) : processors_(processors) {
    contexts_.push_back(CtxInfo{});  // root context 0
    live_tokens_.push_back(0);
    retired_.push_back(false);
    place(0);
  }

  [[nodiscard]] std::size_t size() const { return contexts_.size(); }
  [[nodiscard]] const CtxInfo& info(std::uint32_t ctx) const {
    return contexts_[ctx];
  }
  /// The processing element `ctx` was placed on; requires processors > 0.
  [[nodiscard]] std::uint32_t pe(std::uint32_t ctx) const { return pe_[ctx]; }

  void add_live(std::uint32_t ctx, std::uint32_t n = 1) {
    live_tokens_[ctx] += n;
  }

  /// k-bounded loops: if starting the iteration (loop ← from) would
  /// exceed `bound`, returns the instance the forwarding must stall in;
  /// nullptr when it may proceed. bound 0 = unbounded.
  [[nodiscard]] LoopInstance* bound_block(cfg::LoopId loop,
                                          std::uint32_t from, unsigned bound) {
    if (bound == 0) return nullptr;
    const auto [link, inst] = iteration_link(loop, from);
    if (*link != 0) return nullptr;
    return inst->in_flight >= bound ? inst : nullptr;
  }

  /// The context of iteration (loop ← from), allocating it (and a
  /// k-bound credit) on first use.
  std::uint32_t context_for_iteration(cfg::LoopId loop, std::uint32_t from,
                                      RunStats& stats) {
    const auto [link, inst] = iteration_link(loop, from);
    if (*link != 0) return *link;
    const auto ctx = static_cast<std::uint32_t>(contexts_.size());
    *link = ctx;  // before the push_back below can move `link`
    contexts_.push_back(CtxInfo{loop, 0, inst});
    live_tokens_.push_back(0);
    retired_.push_back(false);
    place(ctx);
    ++stats.contexts_allocated;
    ++inst->in_flight;
    ++live_contexts_;
    stats.peak_live_contexts =
        std::max<std::uint64_t>(stats.peak_live_contexts, live_contexts_);
    return ctx;
  }

  /// n tokens of `ctx` were consumed; retire the context when its last
  /// token dies, releasing a k-bound credit and handing any stalled
  /// forwardings to on_stalled(std::vector<Token>&&). Contexts can
  /// transiently hit zero and come back (an inner loop exiting later
  /// re-injects tokens), so retirement is once-only and the bound is
  /// approximate across nested-loop boundaries. Returns true iff this
  /// call retired the context (the calendar policy recycles its frame
  /// on that edge).
  template <class OnStalled>
  bool consume(std::uint32_t ctx, std::uint32_t n, OnStalled&& on_stalled) {
    CTDF_ASSERT(live_tokens_[ctx] >= n);
    live_tokens_[ctx] -= n;
    if (live_tokens_[ctx] != 0 || ctx == 0 || retired_[ctx]) return false;
    retired_[ctx] = true;
    --live_contexts_;
    LoopInstance& instance = *contexts_[ctx].instance;
    if (instance.in_flight > 0) --instance.in_flight;
    if (!instance.stalled.empty()) {
      auto stalled = std::move(instance.stalled);
      instance.stalled.clear();
      on_stalled(std::move(stalled));
    }
    return true;
  }

  /// Forwardings currently buffered by the k-bound (deadlock report).
  [[nodiscard]] std::size_t stalled_total() const {
    std::size_t n = 0;
    for (const auto& [k, inst] : instances_) n += inst.stalled.size();
    return n;
  }

  /// Iteration contexts currently live (allocated, not retired) — the
  /// population a finite frame_capacity caps.
  [[nodiscard]] std::uint64_t live_contexts() const { return live_contexts_; }

  /// Would starting iteration (loop ← from) allocate a fresh context
  /// (i.e. draw down frame capacity), or does the iteration's context
  /// already exist?
  [[nodiscard]] bool would_allocate(cfg::LoopId loop,
                                    std::uint32_t from) const {
    const CtxInfo& cur = contexts_[from];
    if (cur.loop == loop) return cur.next == 0;
    const auto it = instances_.find(instance_key(loop, from));
    return it == instances_.end() || it->second.first == 0;
  }

  /// f(loop id, invocation ctx, iterations in flight, stalled
  /// forwardings) per loop instance, in (loop, invocation) order — the
  /// per-loop breakdown of the deadlock diagnosis.
  template <class F>
  void for_each_instance(F&& f) const {
    std::vector<std::uint64_t> keys;
    keys.reserve(instances_.size());
    for (const auto& [k, inst] : instances_) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    for (const std::uint64_t k : keys) {
      const LoopInstance& inst = instances_.at(k);
      f(static_cast<std::uint32_t>(k >> 32),
        static_cast<std::uint32_t>(k & 0xFFFFFFFFu), inst.in_flight,
        inst.stalled.size());
    }
  }

 private:
  [[nodiscard]] static std::uint64_t instance_key(cfg::LoopId loop,
                                                  std::uint32_t invocation) {
    return (static_cast<std::uint64_t>(loop.value()) << 32) | invocation;
  }

  void place(std::uint32_t ctx) {
    if (processors_ > 0)
      pe_.push_back(support::golden_bucket(ctx, processors_));
  }

  /// Where the context of iteration (loop ← from) is linked, and the
  /// invocation it belongs to. From inside the loop that is `from`'s own
  /// successor link, with no lookup. Only a token entering the loop
  /// from outside looks up (and on first entry creates) the invocation.
  std::pair<std::uint32_t*, LoopInstance*> iteration_link(
      cfg::LoopId loop, std::uint32_t from) {
    CtxInfo& cur = contexts_[from];
    if (cur.loop == loop) return {&cur.next, cur.instance};
    LoopInstance& inst = instances_[instance_key(loop, from)];
    inst.invocation = from;
    return {&inst.first, &inst};
  }

  unsigned processors_;
  std::vector<CtxInfo> contexts_;
  std::vector<std::uint32_t> live_tokens_;
  std::vector<bool> retired_;
  std::vector<std::uint32_t> pe_;  ///< per context, when processors_ > 0
  std::uint64_t live_contexts_ = 0;
  /// One entry per loop invocation, keyed by (loop, invocation context).
  /// Node-based, so the CtxInfo::instance pointers into it stay valid.
  std::unordered_map<std::uint64_t, LoopInstance> instances_;
};

}  // namespace ctdf::machine
