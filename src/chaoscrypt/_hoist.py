"""The scanner's lift pass: one ast pass over the code a key runs for its
first symbol, which takes out every grid-, row- and column-invariant
subtree and returns the snippets maps._kernel splices into the scanner
template in its place (see hoist).
"""

from __future__ import annotations

import ast

# The levels of the loop nest a scanner runs keys in, as the set of loop
# axes a value depends on: grid-invariant values depend on neither, a
# key's values on both.
_GRID = frozenset()
_ROW = frozenset({"row"})
_COLUMN = frozenset({"column"})
_KEY = _ROW | _COLUMN

# The names the lift region reads before it assigns them, by the level
# they are invariant at: the call's arguments, among them the keystream
# byte t0 that symbol 0 must meet, a row's a and a column's b.
_INVARIANT = {**dict.fromkeys(("x0", "y0", "n", "q", "t0"), _GRID), "a": _ROW, "b": _COLUMN}

# Operations a lifted subtree may contain. Float +, -, * and comparisons
# never raise, and fmod raises ValueError only on an infinite dividend;
# everything else (floor, /, %) stays where the template puts it.
_PURE_OPS = (ast.Add, ast.Sub, ast.Mult, ast.USub, ast.UAdd, ast.Not)
_PURE_CALLS = ("abs", "fmod")


class _Lifter:
    """Walks the straight-line code of one key, following each name's
    current value, and takes out every maximal pure subtree whose value
    is invariant at some level (see hoist)."""

    def __init__(self, levels: dict[str, frozenset]):
        self.levels = dict(levels)  # invariant names, declared or lifted
        self.alias: dict[str, ast.expr] = {}  # a name's current, invariant value
        self.lifted = {_GRID: [], _ROW: [], _COLUMN: []}
        self.names: dict[str, str] = {}  # a lifted subtree's dump -> its name
        self.version = 0  # counts the changes to the state above

    def lift(self, level: frozenset, node: ast.expr) -> ast.Name:
        """Assign node to a fresh name at level, unless the same subtree
        was lifted before; returns the name that holds it. The names in a
        lifted subtree are never assigned again, so equal subtrees have
        equal values."""
        dump = ast.dump(node)
        if dump not in self.names:
            name = f"_{'grc'[[_GRID, _ROW, _COLUMN].index(level)]}{len(self.levels)}"
            self.names[dump] = name
            self.lifted[level].append(ast.Assign([ast.Name(name, ast.Store())], node))
            self.levels[name] = level
            self.version += 1
        return ast.Name(self.names[dump], ast.Load())

    def visit(self, node: ast.expr, lifting: bool = True) -> tuple[ast.expr, frozenset | None]:
        """node with each name that has an alias replaced by its value and,
        when lifting, each child whose level differs from node's lifted;
        and node's level, or None when node may not be lifted. A child
        that runs only as its parent's short circuit allows is lifted
        only with its parent."""
        if isinstance(node, ast.Constant):
            return node, _GRID
        if isinstance(node, ast.Name):
            if node.id in self.alias:
                return self.visit(self.alias[node.id])
            return node, self.levels.get(node.id, _KEY)
        if isinstance(node, ast.BinOp):
            pure, always, sometimes = isinstance(node.op, _PURE_OPS), ["left", "right"], []
        elif isinstance(node, ast.UnaryOp):
            pure, always, sometimes = isinstance(node.op, _PURE_OPS), ["operand"], []
        elif isinstance(node, ast.Call) and not node.keywords:
            pure = isinstance(node.func, ast.Name) and node.func.id in _PURE_CALLS
            always, sometimes = [("args", k) for k in range(len(node.args))], []
        elif isinstance(node, ast.Compare):
            pure, always = True, ["left", ("comparators", 0)]
            sometimes = [("comparators", k) for k in range(1, len(node.comparators))]
        elif isinstance(node, ast.BoolOp):
            pure, always = True, [("values", 0)]
            sometimes = [("values", k) for k in range(1, len(node.values))]
        else:
            raise ValueError(f"cannot lift across {ast.unparse(node)!r}")
        children = {}
        for where in always + sometimes:
            children[where] = self.visit(_get(node, where), lifting and where in always)
        if all(level is not None for _, level in children.values()) and pure:
            level = frozenset().union(*(level for _, level in children.values()))
        else:
            level = None
        for where, (child, child_level) in children.items():
            if (lifting and where in always and child_level not in (None, _KEY, level)
                    and not _trivial(child)):
                child = self.lift(child_level, child)
            _set(node, where, child)
        return node, level

    def statement(self, stmt: ast.stmt) -> list[ast.stmt]:
        """The key's code left of stmt once its invariant values are lifted."""
        if isinstance(stmt, ast.If) and not stmt.orelse:
            # a test keeps its place; only its parts of another level move
            test, _ = self.visit(stmt.test)
            # the body is kept verbatim: it may read invariants, such as a
            # and b, but not a name that stands for another, and it may
            # assign no invariant
            if any(n.id in self.alias or (n.id in self.levels and not isinstance(n.ctx, ast.Load))
                   for s in stmt.body for n in ast.walk(s) if isinstance(n, ast.Name)):
                raise ValueError(f"cannot lift across {ast.unparse(stmt)!r}")
            return [ast.If(test, stmt.body, [])]
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            raise ValueError(f"cannot lift across {ast.unparse(stmt)!r}")
        target, value = stmt.targets[0], stmt.value
        if isinstance(target, ast.Name):
            pairs = [(target.id, value)]
        elif (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
              and len(target.elts) == len(value.elts)
              and all(isinstance(t, ast.Name) for t in target.elts)):
            pairs = [(t.id, v) for t, v in zip(target.elts, value.elts)]
        else:
            raise ValueError(f"cannot lift across {ast.unparse(stmt)!r}")
        # every element is evaluated before any target is bound
        pairs = [(name, *self.visit(v)) for name, v in pairs]
        kept = []
        for name, v, level in pairs:
            if name in self.levels:
                raise ValueError(f"cannot lift across {ast.unparse(stmt)!r}")
            if level in (None, _KEY):
                kept.append((name, v))
                self.version += self.alias.pop(name, None) is not None
            else:
                self.alias[name] = v if _trivial(v) else self.lift(level, v)
                self.version += 1
        if len(kept) == 1:
            return [ast.Assign([ast.Name(kept[0][0], ast.Store())], kept[0][1])]
        return [ast.Assign([ast.Tuple([ast.Name(n, ast.Store()) for n, _ in kept], ast.Store())],
                           ast.Tuple([v for _, v in kept], ast.Load()))] if kept else []


def _get(node: ast.AST, where):
    return getattr(node, where) if isinstance(where, str) else getattr(node, where[0])[where[1]]


def _set(node: ast.AST, where, value) -> None:
    if isinstance(where, str):
        setattr(node, where, value)
    else:
        getattr(node, where[0])[where[1]] = value


def _trivial(node: ast.expr) -> bool:
    """A name, or a constant the compiler folds, which nothing gains from
    lifting."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
        return isinstance(node, ast.Constant)
    return isinstance(node, (ast.Name, ast.Constant))


def _code(stmts: list[ast.stmt]) -> str:
    """stmts as source lines."""
    for stmt in stmts:
        # the one location ast.unparse reads (to look up a type comment);
        # setting it alone spares a walk over every node, which would be
        # a third of a scanner's build
        stmt.lineno = 1
    return "".join(ast.unparse(stmt) + "\n" for stmt in stmts)


def hoist(region: str) -> dict[str, str]:
    """The snippets that run region, the code a scanner's key runs (its
    first symbol's keystream, then the if that hands the key on), with
    every invariant subtree lifted out of the key loop.

    region is straight-line code that reads the names of _INVARIANT before
    it assigns them. Every key runs it until it leaves the loop. Nothing
    after it reads a name it assigns. The snippets, each source lines that the splicer indents:
    - grid_lifts, row_lifts, column_lifts: the lifted statements of each
      level, for the scanner to run once per call, per row and per
      column (`pass` when there are none);
    - column_values: b and the names of the column's lifted values,
      comma-separated: a tuple inside parentheses, and the target that
      unpacks one (a lone b is neither, and then each column's entry is
      its b);
    - key_code: region with its invariant subtrees replaced by the names
      that hold them, and each name that stands for another by its value
      (a name is not given its value back at the end, as nothing after
      the region reads it).

    The pass follows each name's current value through the region, so
    that after `x, y = x0, y0` the name x stands for x0. It takes out
    every maximal pure subtree (+, -, *, unary minus, not, abs, fmod,
    comparisons, and/or, names, constants) whose names are all invariant
    at one level and puts it under a fresh name in that level's lifts; a
    name assigned such a value stands for that name from then on. A
    short-circuited operand moves only with its parent. An if keeps its
    place and its body, such as the call that hands the key on. The pass
    refuses any other statement but an assignment, and any expression
    but a name, a constant, an operator, a call, a comparison and and/or
    (a subscript or a tuple, say). A statement met again in the same
    state of the walk (the steps of a run are copies of one step) is
    rewritten as it was the first time.

    Whole subtrees are moved, with every operation and operand order
    kept, so every float comes out bit for bit as before. Only fmod can
    raise (ValueError, on an overflowed dividend). When a lifted value
    raises, the scanner hands its whole tile on to the finish kernel,
    which runs each key from the start state with nothing lifted, so each
    key gets the outcome it would have had unlifted.
    """
    lifter, rewritten = _Lifter(_INVARIANT), {}
    # Each line at column 0 starts a statement; an if's body is indented
    # below it. Only the first copy of a text in a state of the walk is
    # parsed: parsing the region whole would take longer than compiling
    # the scanner does. A text that changes the state is never met again
    # in the state it started from.
    texts, key_code = [], []
    for line in region.splitlines(keepends=True):
        if line.startswith(" "):
            texts[-1] += line
        else:
            texts.append(line)
    for text in texts:
        seen = text, lifter.version
        if seen not in rewritten:
            rewritten[seen] = _code([s for stmt in ast.parse(text).body
                                     for s in lifter.statement(stmt)])
        key_code.append(rewritten[seen])
    columns = [name for name, level in lifter.levels.items() if level == _COLUMN]
    lifts = {f"{name}_lifts": _code(lifter.lifted[level] or [ast.Pass()])
             for name, level in (("grid", _GRID), ("row", _ROW), ("column", _COLUMN))}
    return {**lifts, "column_values": ", ".join(columns), "key_code": "".join(key_code)}
