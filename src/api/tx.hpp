// api::Tx -- the backend-agnostic view of an in-flight transaction attempt.
//
// Thin: three descriptor pointers (exactly one non-null) plus the runner's
// deferred-action list.  Every accessor is one branch on the tag and a
// direct (non-virtual) call into the concrete descriptor, so the read/write
// hot path compiles to the same code as driving the backend directly; the
// single dispatch() helper is the only place the tag branch is written.
//
// Application code should not touch stm::Word* through load()/store();
// those are the primitives the typed layer (api::TVar / api::Shared /
// api::SharedArray, src/api/shared.hpp) and the transactional containers
// (src/txstruct/) are built on.  User-facing code reads and writes through
// the typed accessors:
//
//   api::TVar<long> balance;
//   atomically(th, [&](api::Tx& tx) {
//     tx.write(balance, tx.read(balance) + 1);
//     tx.on_commit([] { notify_downstream(); });
//   });
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <utility>

#include "replica/tx.hpp"
#include "stm/actions.hpp"
#include "stm/swiss.hpp"
#include "stm/tiny.hpp"
#include "stm/word.hpp"

namespace shrinktm::api {

/// The backend-agnostic view of an in-flight transaction attempt: the one
/// parameter every atomically() body receives.  All shared-state access,
/// deferred actions and composable blocking go through this type.
class Tx {
  // The one place the backend tag is branched on: every accessor routes
  // through here, so adding a backend is one new arm in two overloads.
  // (Defined before first use: deduced return types must be visible.)
  template <typename F>
  decltype(auto) dispatch(F&& f) {
    if (tiny_ != nullptr) return f(*tiny_);
    if (swiss_ != nullptr) return f(*swiss_);
    return f(*replica_);
  }
  template <typename F>
  decltype(auto) dispatch(F&& f) const {
    if (tiny_ != nullptr) return f(*tiny_);
    if (swiss_ != nullptr) return f(*swiss_);
    return f(*replica_);
  }

 public:
  /// Views over a live descriptor.  `actions` is the owning runner's
  /// deferred-action list; a null actions pointer (bare descriptor views in
  /// erasure-boundary tests) rejects on_commit/on_abort registration.
  /// (The durable backend's descriptors are TinyTx.)
  explicit Tx(stm::TinyTx& tx, stm::TxActions* actions = nullptr)
      : tiny_(&tx), swiss_(nullptr), replica_(nullptr), actions_(actions) {}
  explicit Tx(stm::SwissTx& tx, stm::TxActions* actions = nullptr)
      : tiny_(nullptr), swiss_(&tx), replica_(nullptr), actions_(actions) {}
  /// Read-only view over a follower descriptor (api::ReplicaRuntime):
  /// store/tx_alloc/tx_free raise stm::TxReadOnlyError.
  explicit Tx(replica::ReplicaTx& tx, stm::TxActions* actions = nullptr)
      : tiny_(nullptr), swiss_(nullptr), replica_(&tx), actions_(actions) {}

  // ---- typed accessors (the user-facing surface) ----

  /// Transactional read of a typed variable (TVar, Shared, or anything
  /// exposing `read(Tx&)`).
  template <typename Var>
    requires requires(const Var& v, Tx& tx) { v.read(tx); }
  auto read(const Var& v) {
    return v.read(*this);
  }

  /// Transactional write of a typed variable.
  template <typename Var, typename U>
    requires requires(Var& v, Tx& tx, U&& u) {
      v.write(tx, std::forward<U>(u));
    }
  void write(Var& v, U&& value) {
    v.write(*this, std::forward<U>(value));
  }

  // ---- deferred actions (fire exactly once; see stm/actions.hpp) ----

  /// Run `fn` after the top-level transaction commits.  Registrations from
  /// aborted attempts are discarded with the attempt, so across any number
  /// of conflict-retries the action fires exactly once.  Inside a nested
  /// (joined) atomically() the action still fires at top-level commit.
  void on_commit(std::function<void()> fn) {
    require_actions().on_commit(std::move(fn));
  }

  /// Run `fn` if the transaction is definitively rolled back -- a user
  /// cancel (non-conflict exception) or RetryPolicy exhaustion.  Never runs
  /// on an intermediate conflict-retry.  Must not throw.
  void on_abort(std::function<void()> fn) {
    require_actions().on_abort(std::move(fn));
  }

  // ---- composable blocking (STM-Haskell retry/orElse) ----

  /// Abandon this attempt and block until another transaction commits a
  /// write to something this attempt has read; then re-execute the body.
  /// This is scheduler-visible blocking (the thread parks on the backend's
  /// wakeup table -- zero commits burned while waiting), NOT the bounded
  /// conflict-retry of RetryPolicy, which it never counts against.
  ///
  /// Inside api::or_else, a retry falls through to the next alternative
  /// instead of blocking; only when every alternative retries does the
  /// transaction block, armed on the union of their read sets.
  ///
  /// Read the condition first: an attempt that retries having read nothing
  /// could never be woken, and surfaces as std::logic_error.
  [[noreturn]] void retry() { throw stm::TxRetryRequested{}; }

  /// Timed retry: as retry(), but park at most `timeout`.  On a wakeup the
  /// body re-executes as usual; on expiry it re-executes with timed_out()
  /// true, so the body can take a fallback path (return a sentinel, raise,
  /// try a slower source).  The expired park still counts as a retry_wait
  /// (conservation identity unchanged) and additionally as a retry_timeout
  /// in ThreadStats/RuntimeStats.
  ///
  ///   const bool got = atomically(th, [&](api::Tx& tx) {
  ///     if (tx.read(ready)) return true;
  ///     if (tx.timed_out()) return false;          // give up after 50ms
  ///     tx.retry_for(std::chrono::milliseconds(50));
  ///   });
  template <typename Rep, typename Period>
  [[noreturn]] void retry_for(std::chrono::duration<Rep, Period> timeout) {
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
    throw stm::TxRetryRequested{ns < 0 ? std::int64_t{0} : ns};
  }

  /// Whether an earlier retry_for() park of THIS top-level transaction
  /// expired its bound.  Sticky across the conflict-retries of one
  /// atomically() call; cleared when the next top-level transaction starts.
  bool timed_out() const {
    return dispatch([](const auto& t) { return t.retry_timed_out(); });
  }

  /// Watermark of the deferred-action lists -- or_else plumbing.  or_else
  /// marks before each alternative and rewinds when it falls through, so
  /// only the committed alternative's actions fire.  Tolerates bare
  /// descriptor views (no action list): the mark is empty.
  stm::TxActions::Mark actions_mark() const {
    return actions_ != nullptr ? actions_->mark() : stm::TxActions::Mark{};
  }

  /// Drop action registrations made after `m` (see actions_mark).
  void actions_rewind(const stm::TxActions::Mark& m) {
    if (actions_ != nullptr) actions_->rewind(m);
  }

  // ---- word-level primitives (typed layer plumbing) ----

  /// Transactional load of one word.  Typed-layer plumbing: application
  /// code reads through tx.read(var) on TVar/Shared/containers instead.
  stm::Word load(const stm::Word* addr) {
    return dispatch([&](auto& t) { return t.load(addr); });
  }
  /// Transactional store of one word (typed-layer plumbing; application
  /// code writes through tx.write(var, v)).
  void store(stm::Word* addr, stm::Word value) {
    dispatch([&](auto& t) { t.store(addr, value); });
  }

  /// Transactional allocation: undone on abort, frees deferred to commit.
  void* tx_alloc(std::size_t bytes) {
    return dispatch([&](auto& t) { return t.tx_alloc(bytes); });
  }
  void tx_free(void* p) {
    dispatch([&](auto& t) { t.tx_free(p); });
  }

  /// User-requested restart of the current attempt.
  [[noreturn]] void restart() {
    dispatch([](auto& t) { t.restart(); });
    // Every descriptor's restart() throws TxConflict; if one ever stops
    // being [[noreturn]] this fails loudly instead of dispatching into a
    // null descriptor.
    std::abort();
  }

  /// Thread slot (tid) of the handle driving this attempt.
  int tid() const {
    return dispatch([](const auto& t) { return t.tid(); });
  }

 private:
  stm::TxActions& require_actions() {
    if (actions_ == nullptr)
      throw std::logic_error(
          "api::Tx: deferred actions require a runner-managed transaction "
          "(bare descriptor views have no action list)");
    return *actions_;
  }

  stm::TinyTx* tiny_;
  stm::SwissTx* swiss_;
  replica::ReplicaTx* replica_;
  stm::TxActions* actions_;
};

}  // namespace shrinktm::api
