"""Each closed-form rule has one owning module.

The bound-state thresholds and counts live in ``rootfinder``, next to the
axis cells they read, and so do the axis band TOL_AXIS, the depth at which
the scan's count steps, a pair collision's strength c*^2 = x_c^2 +- 1 (one
helper, which its depth U* and every pair-ball test read) and the inverse
of U*, the box its pair is counted in and the walk that solves the pair of
each cell off the axis; ``chart`` and ``trajectory`` reach them only through
public names. The anchor phases n*(pi/2) and their exact test
live in ``smatrix``. The trig blocks are stated by ``_kernels.trig_scaled``,
which the winding grid calls. The working window's extents, the margin past its corners
at which a march stops and the runaway phase guard (40 + 2c)*pi live in
``trajectory``, which ``chart`` imports. ``rootfinder.residual_ratio``
alone states the residual bound a pole meets, ``rootfinder._bracketed_newton``
is the one bracketed root solver, ``rootfinder._axis_roots`` the one walk
of the axis roots that the scan and the sweep read, and ``chart`` takes its
window contour count in one place, for a chart and a certified sweep alike.
One ``chart`` function walks the 3x3 cells about a pole in q, for the pole
merge and the seed claim alike, and the near contacts compare no pair of
curves outside the cells in q that can hold a contact.
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
    """Whether the module multiplies 1e-3, as a literal or a module constant,
    by an expression holding 1j, as the pair box's corner 1e-3*(1 + 1j) is."""
    consts = _module_constants(tree)

    def value(node):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return consts.get(node.id)
        return None

    def holds_1j(node):
        return any(isinstance(n, ast.Constant) and n.value == 1j for n in ast.walk(node))

    return any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and any(value(side) == 1e-3 and holds_1j(other)
                for side, other in ((node.left, node.right), (node.right, node.left)))
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


def test_winding_grid_states_no_trig_block():
    (grid,) = [node for node in _tree("_kernels.py").body
               if isinstance(node, ast.FunctionDef) and node.name == "grid_denom_dk"]
    named = {node.id for node in ast.walk(grid) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(grid) if isinstance(node, ast.Attribute)}
    assert "trig_scaled" in named
    assert named.isdisjoint({"cos", "sin", "exp", "_half_angle"})


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


def _walks_cell_offsets(node: ast.AST) -> bool:
    """Whether a loop under node runs over the offsets (-1, 0, 1), as a walk
    over the 3x3 cells about a point does."""
    def offsets(it):
        try:
            return ast.literal_eval(it) == (-1, 0, 1)
        except ValueError:
            return False

    return any(isinstance(loop, (ast.For, ast.comprehension)) and offsets(loop.iter)
               for loop in ast.walk(node))


def _cell_walkers() -> list[str]:
    return [name for name, f in _chart_functions().items() if _walks_cell_offsets(f)]


def test_chart_walks_the_dedup_cells_once():
    # the pole merge and the seed claim read one helper for the 3x3 cells
    # of side 2*_DEDUP_TOL about a point in q
    functions = _chart_functions()
    (walker,) = _cell_walkers()
    for reader in ("_distinct", "_claimed"):
        assert walker in {node.func.id for node in ast.walk(functions[reader])
                          if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_claimed_loops_over_no_kept_curve():
    # a claim reads the anchors filed in the cells about its pole, and
    # nothing else: every loop in it runs over the cell walk
    walkers = set(_cell_walkers())
    loops = [loop for loop in ast.walk(_chart_functions()["_claimed"])
             if isinstance(loop, (ast.For, ast.While, ast.comprehension))]
    assert loops
    assert all(isinstance(loop, ast.comprehension) and isinstance(loop.iter, ast.Call)
               and isinstance(loop.iter.func, ast.Name) and loop.iter.func.id in walkers
               for loop in loops)


def test_near_contacts_slices_no_curve_list():
    # candidate pairs come from cells in q; a slice such as maps[i + 1:]
    # pairs each curve with every later one
    near = _chart_functions()["_near_contacts"]
    assert not any(isinstance(node, ast.Slice) for node in ast.walk(near))
