"""Termination checking (§4, Fig. 6) and heap-mutation consistency (§4).

1. Type-level code may not loop, may only call terminating methods, and
   iterators must take pure blocks — otherwise type checking is rejected.
2. If mutable state a comp type depends on (the DB schema) changes between
   type checking and a call, the inserted dynamic check raises Blame.
3. A type-level helper redefined to loop after a check is rejected by the
   next check, not run: the termination verdict follows redefinitions.

Run: python examples/termination_and_blame.py
"""

from repro import Blame, CompRDL, Database
from repro.typecheck.errors import TerminationError


def main() -> None:
    # 1. a comp type containing a loop is rejected by the termination checker
    rdl = CompRDL()
    rdl.load("""
class Unsafe
  type :helper, "(t<:Object) -> «while true \n end»/Object"
  def helper(x)
    x
  end

  type "() -> Object", typecheck: :app
  def use
    helper(1)
  end
end
""")
    report = rdl.check(":app")
    print("looping comp type:")
    print(" ", report.errors[0] if report.errors else "unexpectedly accepted")

    # 2. an iterator with an impure block is rejected (Fig. 6 line 15)
    rdl = CompRDL()
    rdl.load("""
class Unsafe2
  type :helper2, "(t<:Object) -> «[1,2,3].map { |v| $log = v }\n Nominal.new(Integer)»/Object"
  def helper2(x)
    x
  end

  type "() -> Object", typecheck: :app
  def use2
    helper2(1)
  end
end
""")
    report = rdl.check(":app")
    print("\nimpure iterator block in comp type:")
    print(" ", report.errors[0] if report.errors else "unexpectedly accepted")

    # 3. heap-mutation consistency: comp types are re-validated at run time
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load("""
class User < ActiveRecord::Base
  type "(String) -> %bool", typecheck: :app
  def self.taken?(name)
    User.exists?({ username: name })
  end
end
""")
    print("\nschema-consistency check:")
    print("  static check:", rdl.check(":app").summary())
    print("  call under original schema:",
          rdl.run('User.taken?("bob")', checks=True))
    db.drop_column("users", "username")  # the §4 "pathological" mutation
    try:
        rdl.run('User.taken?("bob")', checks=True)
        print("  BUG: mutation not detected")
    except Blame as blame:
        print("  after dropping the column: Blame!")
        print("   ", str(blame)[:100], "...")

    # 4. a helper redefined to loop after a check: the next check rejects it
    rdl = CompRDL()
    rdl.load("""
type :pick_type, "() -> Type", terminates: :+, pure: :+
def pick_type
  Nominal.new(Integer)
end
comp_helper :pick_type

class Picker
  type :"self.make", "() -> «pick_type()»"
  def self.make()
    1
  end

  type :"self.use", "() -> Integer", typecheck: :app
  def self.use()
    Picker.make()
  end
end
""")
    print("\nhelper redefined to loop after a check:")
    print("  first check:", rdl.check(":app").summary())
    rdl.load("def pick_type\n  while true\n  end\n  Nominal.new(Integer)\nend\n")
    report = rdl.check(":app")
    if not isinstance(report.errors[0] if report.errors else None,
                      TerminationError):
        raise SystemExit("BUG: the looping helper was not rejected")
    print("  after the redefinition:", report.errors[0])


if __name__ == "__main__":
    main()
