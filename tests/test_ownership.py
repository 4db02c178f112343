"""Each closed-form rule has one owning module.

The bound-state thresholds and counts live in ``rootfinder``, next to the
axis cells they read, and so do the axis band TOL_AXIS, the depth at which
the scan's count steps, a pair collision's strength c*^2 = x_c^2 +- 1 (one
helper, which its depth U* and every pair-ball test read) and the inverse
of U*, the box its pair is counted in and the walk that solves the pair of
each cell off the axis; ``chart`` and ``trajectory`` reach them only through
public names. The anchor phases n*(pi/2) and their exact test
live in ``smatrix``. The trig blocks are stated by ``_kernels.trig_scaled``
and the channel algebra by ``_kernels._channel_terms``, which the winding
grid calls. ``_kernels`` alone states ``newton_pole``'s step tolerance, and
every Newton budget is ``MAX_NEWTON`` or the corrector's. The working
window's extents, the margin past its corners at which a march stops and
the runaway phase guard (40 + 2c)*pi live in ``trajectory``, which
``chart`` imports. ``rootfinder.residual_ratio`` alone states the residual
bound a pole meets, ``rootfinder._bracketed_newton`` is the one bracketed
root solver, ``rootfinder._axis_roots`` the one walk
of the axis roots that the scan and the sweep read, and ``chart`` takes its
window contour count in one place, for a chart and a certified sweep alike,
over ``window_extents`` in q. The count takes its rectangle in q as numbers
(no module builds a region record), and a collision's pair is counted at
its own s = +-c*^2, with no stand-in well.
``rootfinder.level_set_components`` alone states which level-set
component a point lies on, and ``build_chart`` reads it to name the curve a
seed may merge into: the claim checks that one curve's anchors and files
none. No module keeps a near-contact diagnostic. ``trajectory`` alone
completes a curve from its march, with its mirror image, and states the
split step: ``chart`` imports no private name of it and joins no curve, and
``branch_at_double_zero`` reads the scan's coalesced pair from its seed,
walking no axis cell again.
One helper there states that image, and the march alone calls it: a curve
is its own image, so no second entry point reflects one.
``smatrix.verify_relations`` states the identities that ``wellpoles verify``
checks, and ``cli`` names none of their parts. ``smatrix._exp`` alone
catches OverflowError, to give cmath.exp the kernels' non-finite contract,
and ``smatrix._pole_functions`` alone applies the S functions' pole test.
These checks read the package source, so a second copy of any of these
rules fails here before it drifts from the first.
"""

from __future__ import annotations

import ast
from pathlib import Path

import wellpoles

SRC = Path(wellpoles.__file__).resolve().parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def test_chart_imports_no_private_rootfinder_name():
    private = [
        alias.name
        for node in ast.walk(_tree("chart.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "rootfinder" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _assigns(tree: ast.Module, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if any(isinstance(t, ast.Name) and t.id == name for t in ast.walk(target)):
                return True
    return False


def test_only_smatrix_assigns_half_pi():
    owners = sorted(p.name for p in SRC.glob("*.py") if _assigns(_tree(p.name), "HALF_PI"))
    assert owners == ["smatrix.py"]


def _states_window_extents(tree: ast.Module) -> bool:
    """Whether the module adds both 8 and 6 to one expression, as the
    working window's extents 8 + 2c and 6 + 2c do."""
    offsets: dict[str, set] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            for const, other in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(const, ast.Constant) and const.value in (6, 8)
                        and not isinstance(other, ast.Constant)):
                    offsets.setdefault(ast.dump(other), set()).add(const.value)
    return any(len(found) == 2 for found in offsets.values())


def _states_window_margin(tree: ast.Module) -> bool:
    return any(isinstance(node, ast.Constant) and node.value == 1.2 for node in ast.walk(tree))


def test_only_trajectory_states_the_window_rule():
    trees = {p.name: _tree(p.name) for p in SRC.glob("*.py")}
    assert sorted(name for name, tree in trees.items() if _states_window_extents(tree)) == [
        "trajectory.py"]
    assert sorted(name for name, tree in trees.items() if _states_window_margin(tree)) == [
        "trajectory.py"]


def _states_phase_guard(tree: ast.Module) -> bool:
    """Whether the module adds 40 to a product with 2, as the guard
    (40 + 2c)*pi does, or multiplies 40 by pi, as a fixed phase cap would."""
    def is_const(node, value):
        return isinstance(node, ast.Constant) and node.value == value

    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp):
            continue
        for const, other in ((node.left, node.right), (node.right, node.left)):
            if not is_const(const, 40):
                continue
            if (isinstance(node.op, ast.Add) and isinstance(other, ast.BinOp)
                    and isinstance(other.op, ast.Mult)
                    and (is_const(other.left, 2) or is_const(other.right, 2))):
                return True
            if (isinstance(node.op, ast.Mult) and isinstance(other, ast.Attribute)
                    and other.attr == "pi"):
                return True
    return False


def test_only_trajectory_states_the_phase_guard():
    owners = sorted(p.name for p in SRC.glob("*.py") if _states_phase_guard(_tree(p.name)))
    assert owners == ["trajectory.py"]


def _module_constants(tree: ast.Module) -> dict[str, object]:
    return {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _states_pair_box(tree: ast.Module) -> bool:
    """Whether the module adds 1e-3, as a literal or a module constant, to
    -1 or subtracts it from -1, as the pair box's edges -1 +- _PAIR_BOX
    about q = -i are."""
    consts = _module_constants(tree)

    def value(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return consts.get(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = value(node.operand)
            return -inner if isinstance(inner, (int, float)) else None
        return None

    return any(
        isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and value(node.left) == -1 and value(node.right) == 1e-3
        for node in ast.walk(tree)
    )


def _collision_strength_owners(tree: ast.Module) -> list[str | None]:
    """The functions that add 1 to or subtract 1 from a square, as the
    collision strength c*^2 = x_c^2 +- 1 and every depth (x_c^2 +- 1)/(2 m
    a^2) built on it do: the innermost enclosing function of each such
    expression, None at module level."""
    def is_unit(node):
        if isinstance(node, ast.IfExp):
            return is_unit(node.body) and is_unit(node.orelse)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return is_unit(node.operand)
        return isinstance(node, ast.Constant) and node.value == 1

    def is_square(node):
        if not isinstance(node, ast.BinOp):
            return False
        if isinstance(node.op, ast.Pow):
            return isinstance(node.right, ast.Constant) and node.right.value == 2
        return isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right)

    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    owners = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)) and any(
                is_unit(one) and is_square(sq)
                for one, sq in ((node.left, node.right), (node.right, node.left))):
            enclosing = [f.name for f in functions if node in ast.walk(f)]
            owners.append(enclosing[-1] if enclosing else None)
    return owners


def _states_inverse_collision_depth(tree: ast.Module) -> bool:
    """Whether the module subtracts 1 from a product of m and a with a third
    factor, as the inverse x^2 = 2 m a^2 u - 1 of U* does."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            continue
        if not (isinstance(node.right, ast.Constant) and node.right.value == 1):
            continue
        prod = node.left
        if not (isinstance(prod, ast.BinOp) and isinstance(prod.op, ast.Mult)):
            continue
        names = {n.id for n in ast.walk(prod) if isinstance(n, ast.Name)}
        if {"m", "a"} < names:
            return True
    return False


def test_only_rootfinder_states_the_collision_rules():
    trees = {p.name: _tree(p.name) for p in SRC.glob("*.py")}
    assert sorted(name for name, tree in trees.items() if _states_pair_box(tree)) == [
        "rootfinder.py"]
    # c*^2 = x_c^2 +- 1 is stated once, and every collision depth divides it
    assert sorted((name, owner) for name, tree in trees.items()
                  for owner in _collision_strength_owners(tree)) == [
        ("rootfinder.py", "_collision_c2")]
    assert sorted(
        name for name, tree in trees.items() if _states_inverse_collision_depth(tree)
    ) == ["rootfinder.py"]


def test_collision_rules_reach_the_strength_helper():
    # the collision depth, the scan's coalesced-pair and root tests, the
    # off-axis walk and the multiplicity test all read c*^2 from its helper
    functions = {f.name: f for f in _tree("rootfinder.py").body if isinstance(f, ast.FunctionDef)}
    calls = {name: {node.func.id for node in ast.walk(f)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
             for name, f in functions.items()}

    def reached(name):
        seen, todo = set(), [name]
        while todo:
            for callee in calls.get(todo.pop(), ()):
                if callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return seen

    for reader in ("collision_depth", "_cell_roots", "off_axis_poles", "multiplicity_at"):
        assert "_collision_c2" in reached(reader), reader


def _reads_tol_axis(tree: ast.Module) -> bool:
    """Whether the module names TOL_AXIS in code: as a name, an attribute
    or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "TOL_AXIS":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TOL_AXIS":
            return True
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name == "TOL_AXIS" for alias in node.names):
            return True
    return False


def test_only_rootfinder_reads_the_axis_band():
    owners = sorted(p.name for p in SRC.glob("*.py") if _reads_tol_axis(_tree(p.name)))
    assert owners == ["rootfinder.py"]


def _kernel_function(name: str) -> ast.FunctionDef:
    (function,) = [node for node in _tree("_kernels.py").body
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def test_winding_grid_states_no_trig_block():
    grid = _kernel_function("grid_denom_dk")
    named = {node.id for node in ast.walk(grid) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(grid) if isinstance(node, ast.Attribute)}
    assert "trig_scaled" in named
    assert named.isdisjoint({"cos", "sin", "exp", "_half_angle"})


def test_winding_grid_states_no_channel_term():
    # the grid's d and dd/dq come from _channel_terms; every term of the
    # channel algebra carries a factor i, so a copy would hold a complex
    # constant
    grid = _kernel_function("grid_denom_dk")
    assert "_channel_terms" in {sub.func.id for sub in ast.walk(grid)
                                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
    assert not any(isinstance(node, ast.Constant) and isinstance(node.value, complex)
                   for node in ast.walk(grid))


def _own_nodes(function: ast.FunctionDef):
    """The nodes of function's body outside any function nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _newton_calls() -> list[tuple[str, ast.FunctionDef, ast.Call]]:
    """(module, innermost enclosing function, call) for every newton_pole
    call in src."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(_tree(path.name)):
            if isinstance(function, ast.FunctionDef):
                found += [(path.name, function, call) for call in _own_nodes(function)
                          if isinstance(call, ast.Call)
                          and (getattr(call.func, "id", None) == "newton_pole"
                               or getattr(call.func, "attr", None) == "newton_pole")]
    return found


def test_only_kernels_states_the_step_tolerance():
    # newton_pole reads STEP_TOL itself; a call takes (q0, s, ch, max_iter)
    owners = sorted(p.name for p in SRC.glob("*.py") if _assigns(_tree(p.name), "STEP_TOL"))
    assert owners == ["_kernels.py"]
    assert [arg.arg for arg in _kernel_function("newton_pole").args.args] == [
        "q0", "s", "ch", "max_iter"]
    calls = _newton_calls()
    assert len(calls) == 5
    assert all(len(call.args) == 4 and not call.keywords for _, _, call in calls)


def _default_of(function: ast.FunctionDef, name: str) -> ast.AST | None:
    """The default of the parameter name of function, or None."""
    args = function.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return next((default for arg, default in pairs if arg.arg == name), None)


def test_newton_budgets_are_named():
    # every budget is MAX_NEWTON or the corrector's _CORRECTOR_ITERS, or a
    # parameter whose default is MAX_NEWTON (newton_refine's max_iter)
    budgets = {"MAX_NEWTON", "_CORRECTOR_ITERS"}
    for module, function, call in _newton_calls():
        budget = call.args[-1]
        assert isinstance(budget, ast.Name), (module, function.name)
        if budget.id not in budgets:
            default = _default_of(function, budget.id)
            assert isinstance(default, ast.Name) and default.id == "MAX_NEWTON", (
                module, function.name)


def _names(node: ast.AST) -> set[str]:
    """Every name the code under node reads, sets, imports or takes as an
    attribute."""
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            named |= {alias.name for alias in sub.names}
    return named


def test_only_rootfinder_walks_the_off_axis_cells():
    # the sweep's plane poles come from one cell walk, which seeds a Newton
    # solve per cell whose pair has left the axis
    cell_rules = {"newton_pole", "_PAIR_BALL", "_pair_offset"}
    assert _names(_tree("chart.py")).isdisjoint(cell_rules)
    (walk,) = [node for node in _tree("rootfinder.py").body
               if isinstance(node, ast.FunctionDef) and node.name == "off_axis_poles"]
    assert cell_rules <= _names(walk)


def test_rootfinder_holds_the_one_bracketed_solver():
    # the axis roots and the collision points are solved by Newton on a
    # kept sign-change bracket; no second root solver sits beside it
    solvers = sorted(p.name for p in SRC.glob("*.py")
                     if "_bracketed_newton" in {node.name for node in ast.walk(_tree(p.name))
                                                if isinstance(node, ast.FunctionDef)})
    assert solvers == ["rootfinder.py"]
    callers = sorted(
        (p.name, node.name) for p in SRC.glob("*.py")
        for node in ast.walk(_tree(p.name))
        if isinstance(node, ast.FunctionDef) and node.name != "_bracketed_newton"
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_bracketed_newton" for call in ast.walk(node))
    )
    assert callers == [("rootfinder.py", "_cell_roots"), ("rootfinder.py", "collision_x")]
    assert all("_brentq" not in _names(_tree(p.name)) for p in SRC.glob("*.py"))


def test_rootfinder_enumerates_the_axis_roots_once():
    # one function walks _cell_roots over every cell of _axis_cells; the
    # scan's records and the sweep's bare momenta both read that walk, and
    # bound_count draws single roots without iterating a cell
    functions = {p.name: [node for node in ast.walk(_tree(p.name))
                          if isinstance(node, ast.FunctionDef)] for p in SRC.glob("*.py")}

    def iterates_cell_roots(node):
        return any(isinstance(loop, (ast.For, ast.comprehension))
                   and isinstance(loop.iter, ast.Call) and isinstance(loop.iter.func, ast.Name)
                   and loop.iter.func.id == "_cell_roots" for loop in ast.walk(node))

    walkers = [(name, f.name) for name, fs in functions.items() for f in fs
               if iterates_cell_roots(f)]
    assert walkers == [("rootfinder.py", "_axis_roots")]
    rootfinder = {f.name: f for f in functions["rootfinder.py"]}
    assert "_axis_cells" in _names(rootfinder["_axis_roots"])
    for reader in ("scan_axis", "axis_momenta"):
        named = _names(rootfinder[reader])
        assert "_axis_roots" in named
        assert named.isdisjoint({"_axis_cells", "_cell_roots"})


def test_chart_takes_the_window_count_once():
    calls = [node for node in ast.walk(_tree("chart.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "count_zeros_padded"]
    assert len(calls) == 1


def _function(module: str, name: str) -> ast.FunctionDef:
    (node,) = [f for f in ast.walk(_tree(module))
               if isinstance(f, ast.FunctionDef) and f.name == name]
    return node


def test_no_module_builds_a_count_region():
    # the count takes its rectangle in q as numbers
    assert [p.name for p in SRC.glob("*.py") if "CountRegion" in _names(_tree(p.name))] == []


def test_window_count_reads_the_window_extents():
    # the window in q, as trajectory states it, with no round trip through k
    named = _names(_function("chart.py", "_window_count"))
    assert "window_extents" in named and "working_window" not in named


def test_pair_count_builds_no_well():
    # the count reads the collision's s = +-c*^2 itself, with no stand-in well
    named = _names(_function("rootfinder.py", "collision_pair_count"))
    assert "_collision_c2" in named and "PotentialSpec" not in named


def test_only_rootfinder_states_the_residual_bound():
    # the bound that a traced seed and each pole of a certified sweep meet
    owners = sorted(p.name for p in SRC.glob("*.py") if "RESIDUAL_TOL" in _names(_tree(p.name)))
    assert owners == ["rootfinder.py"]
    readers = [node.name for node in _tree("rootfinder.py").body
               if isinstance(node, ast.FunctionDef) and "RESIDUAL_TOL" in _names(node)]
    assert readers == ["residual_ratio"]


def test_cli_states_no_scattering_identity():
    # verify's identities are computed by smatrix.verify_relations; the CLI
    # only samples, holds the tolerances and records
    identity_parts = {"denom_full", "denom_plus", "denom_minus", "parity_channels",
                      "interior_momentum", "s_full"}
    assert _names(_tree("cli.py")).isdisjoint(identity_parts)


def test_only_exp_catches_overflow():
    # the package keeps the kernels' non-finite contract: past the float
    # range a value reads inf or nan, and only smatrix._exp, which gives
    # cmath.exp that contract, catches the OverflowError it raises
    broad = {"OverflowError", "ArithmeticError", "Exception", "BaseException"}
    catchers = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and (
                    handler.type is None or broad & _names(handler.type)):
                owners = [f.name for f in functions if handler in ast.walk(f)]
                catchers.append((path.name, owners[-1] if owners else None))
    assert catchers == [("smatrix.py", "_exp")]
    smatrix = {f.name: f for f in _tree("smatrix.py").body if isinstance(f, ast.FunctionDef)}
    for name in ("verify_relations", "unitarity_residual"):
        assert not any(isinstance(node, ast.Try) for node in ast.walk(smatrix[name]))


def test_s_full_rests_on_the_channel_pole_functions():
    # s_full takes its elements from the two channel pole functions at
    # z = aK, not from a second, double-angle formula at 2aK; one helper
    # applies the pole test for it and for the channel eigenvalues
    smatrix = {f.name: f for f in _tree("smatrix.py").body if isinstance(f, ast.FunctionDef)}
    assert _names(smatrix["s_full"]).isdisjoint({"interior_momentum", "_channel_s"})
    readers = [name for name, f in smatrix.items() if "POLE_HIT_SCALE" in _names(f)]
    assert readers == ["_pole_functions"]


def _chart_functions() -> dict[str, ast.FunctionDef]:
    return {f.name: f for f in _tree("chart.py").body if isinstance(f, ast.FunctionDef)}


def _calls(node: ast.AST) -> set[str]:
    return {sub.func.id for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}


def test_chart_files_no_anchor():
    # a seed's curve comes from its component, not from an index of the
    # kept curves' anchors in the cells of side 2*_DEDUP_TOL
    assert "_dedup_cell" not in _calls(_chart_functions()["build_chart"])


def test_claimed_loops_over_one_curve():
    # a claim reads the anchors of the one curve its component names: its
    # one loop runs over that curve's anchors, not over the kept curves
    loops = [loop for loop in ast.walk(_chart_functions()["_claimed"])
             if isinstance(loop, (ast.For, ast.While, ast.comprehension))]
    assert len(loops) == 1
    (loop,) = loops
    assert isinstance(loop, ast.comprehension) and isinstance(loop.iter, ast.Attribute)
    assert loop.iter.attr == "anchors"


def _states_component_rule(node: ast.AST) -> bool:
    """Whether the code under node halves a count plus one, as the rule
    (m + 1) // 2 of a point with m ends above it does."""
    return any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.FloorDiv)
               and isinstance(sub.right, ast.Constant) and sub.right.value == 2
               and isinstance(sub.left, ast.BinOp) and isinstance(sub.left.op, ast.Add)
               and any(isinstance(t, ast.Constant) and t.value == 1
                       for t in (sub.left.left, sub.left.right))
               for sub in ast.walk(node))


def test_one_function_states_the_component_rule():
    owners = [(path.name, f.name) for path in sorted(SRC.glob("*.py"))
              for f in _tree(path.name).body
              if isinstance(f, ast.FunctionDef) and _states_component_rule(f)]
    assert owners == [("rootfinder.py", "level_set_components")]
    assert "level_set_components" in _calls(_chart_functions()["build_chart"])


def test_no_module_names_a_near_contact():
    # near contacts marked sound charts, and every wrong chart they marked
    # already fails its certificate with trace_stalled or phase_guard
    # warnings, so the chart keeps no such record, key or rule
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path.name)
        named = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)  # a document key
        found += [(path.name, name) for name in sorted(named)
                  if "nearcontact" in name.lower().replace("_", "")]
    assert found == []


def test_trajectory_alone_completes_a_curve():
    # trace and trace_branch return whole curves: chart neither joins a
    # march with its mirror image nor reads the split step
    tree = _tree("chart.py")
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "trajectory" and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    called = {getattr(sub.func, "id", getattr(sub.func, "attr", None))
              for sub in ast.walk(tree) if isinstance(sub, ast.Call)}
    assert called.isdisjoint({"mirror", "_join"})


def test_split_reads_the_scanned_pair():
    # a seed's multiplicity 2 is the scan's pair-ball test; the split does
    # not walk the axis cells again to confirm it
    functions = {f.name: f for f in _tree("trajectory.py").body if isinstance(f, ast.FunctionDef)}
    assert "multiplicity_at" not in _calls(functions["branch_at_double_zero"])


def _states_the_image(node: ast.AST) -> bool:
    """Whether the code under node negates conjugated momenta taken from
    reversed(...), as the reflection (alpha, k) -> (2*alpha0 - alpha, -conj(k))
    of a curve's samples in ascending phase does."""
    for comp in ast.walk(node):
        if not isinstance(comp, ast.ListComp):
            continue
        reversed_source = any(isinstance(gen.iter, ast.Call)
                              and getattr(gen.iter.func, "id", None) == "reversed"
                              for gen in comp.generators)
        negated_conjugate = any(isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.USub)
                                and isinstance(sub.operand, ast.Call)
                                and getattr(sub.operand.func, "attr", None) == "conjugate"
                                for sub in ast.walk(comp.elt))
        if reversed_source and negated_conjugate:
            return True
    return False


def test_trajectory_states_the_image_once():
    # the march completes a curve through one helper, and nothing else
    # reflects one: every traced curve is already its own mirror image
    functions = {f.name: f for f in _tree("trajectory.py").body if isinstance(f, ast.FunctionDef)}
    owners = [name for name, f in functions.items() if _states_the_image(f)]
    assert len(owners) == 1
    callers = [name for name, f in functions.items() if owners[0] in _calls(f)]
    assert callers == ["_trace_from_state"]
    assert functions.keys().isdisjoint({"mirror", "_mirror_index", "_join"})
