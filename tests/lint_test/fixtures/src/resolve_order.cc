// dcp_lint fixture: the resolve-order rule — a redo::Resolve record must
// follow, within the same function, the effect records it covers, and no
// effect record may follow it (DESIGN.md section 8: effects first,
// Resolve last, so a torn WAL tail that keeps the resolve also kept
// every effect).
namespace redo {
struct Update {
  int object;
  int produced;
};
struct Resolve {
  int owner;
  int outcome;
};
}  // namespace redo

struct Node {
  template <typename R>
  void Persist(const R& record) {
    (void)record;
  }
  void RecordOutcome(int owner, int outcome) {
    (void)owner;
    (void)outcome;
  }

  // The resolve lands between the outcome and the update it covers.
  void ResolveBeforeUpdate(int owner) {
    RecordOutcome(owner, 1);
    Persist(redo::Resolve{owner, 1});  // dcp-lint-expect: resolve-order
    Persist(redo::Update{owner, 2});
  }

  // Clean: the outcome and the update land before the resolve.
  void EffectsThenResolve(int owner) {
    RecordOutcome(owner, 1);
    Persist(redo::Update{owner, 2});
    Persist(redo::Resolve{owner, 1});
  }
};
