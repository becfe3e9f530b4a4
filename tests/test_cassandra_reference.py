"""The Cassandra loader against a line-by-line, loop-based reference.

The reference below is the loader as it was when every ``*`` expanded
into a Python loop of scalar assignments and every statement was built
by one pass over the file's lines: ``_split_statements``,
``_declarations`` and ``_parse_start`` read the statements,
``_apply_transition``, ``_apply_observation`` and ``_apply_reward`` fill
the tables entry by entry, and ``_collect_rewards`` and ``_signal_kernel``
bin the rewards.  It shares no code with the loader's statement table or
its run writer, only the checks ``check_rows`` and ``is_distribution``.
The model arrays must agree byte for byte, and a rejected text must fail
with the same error type and message.
"""

import math
import re

import numpy as np
import pytest

from psrplan import cassandra
from psrplan.cassandra import (
    _MATRIX_WORDS, DEFAULT_REWARD_CAP, NAME_ENTRIES, TABLE_BUDGET, parse_pomdp,
)
from psrplan.errors import ParseError, PsrPlanError, UnsupportedConstructError, ValidationError
from psrplan.model import PomdpModel, check_rows, is_distribution

from conftest import DATA

_KEYWORDS = {"discount", "values", "states", "actions", "observations", "start", "T", "O", "R"}
_HEAD = re.compile(r"^([^\W\d_]+)\s*(:?)\s*(.*)$")
_START_MODE = re.compile(r"^(include|exclude)\b\s*:?\s*(.*)$")


class _Stmt:
    def __init__(self, keyword, mode, slots, body, line):
        self.keyword = keyword
        self.mode = mode  # include/exclude for start, else None
        self.slots = slots  # colon-separated header fields
        self.body = body  # rest of the header line, then continuation lines
        self.line = line

    def tokens(self):
        return " ".join(self.body).split()


def _split_statements(text):
    """Group physical lines into statements, one line at a time."""
    stmts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEAD.match(line) if line[0].isalpha() else None
        word = m.group(1) if m else None
        if word in _KEYWORDS:
            rest = m.group(3)
            mode = None
            if word == "start":
                m2 = _START_MODE.match(rest)
                if m2:
                    mode, rest = m2.group(1), m2.group(2)
            if word in ("T", "O", "R"):
                if not m.group(2):
                    raise ParseError(f"expected ':' after {word}", lineno)
                *parts, last = rest.split(":")
                slots = []
                for part in parts:
                    fields = part.split()
                    if not fields:
                        raise ParseError(f"empty field in {word} entry", lineno)
                    if len(fields) != 1:
                        raise ParseError(
                            f"unexpected token '{fields[1]}' in {word} entry", lineno
                        )
                    slots.append(fields[0])
                fields = last.split(None, 1)
                if not fields:
                    raise ParseError(f"empty field in {word} entry", lineno)
                slots.append(fields[0])
                stmts.append(_Stmt(word, None, slots, fields[1:], lineno))
            else:
                stmts.append(_Stmt(word, mode, [], [rest], lineno))
        elif m and m.group(2):
            raise ParseError(f"unrecognized directive '{word}'", lineno)
        else:
            if not stmts:
                raise ParseError(f"unrecognized directive '{line.split()[0]}'", lineno)
            stmts[-1].body.append(line)
    return stmts


def _integer(token, line):
    """An index, start token or count; ``int`` reads at most 4,300 digits."""
    if len(token) > 4300:
        raise ParseError(f"integer of {len(token):,} digits; at most 4,300 are read", line)
    return int(token)


def _within_budget(table, size, line):
    if size > TABLE_BUDGET:
        raise ParseError(
            f"{table} table of at least {size:,} entries is past the budget of "
            f"{TABLE_BUDGET:,}",
            line,
        )


def _names_from_tokens(tokens, keyword, line, sizes):
    """The declared names, once ``sizes[keyword]`` holds their number and
    the T and O tables and the names, at 1 for each count not yet
    declared, fit the budget."""
    if not tokens:
        raise ParseError(f"empty {keyword} declaration", line)
    if len(tokens) == 1 and re.fullmatch(r"\d+", tokens[0]):
        significant = tokens[0].lstrip("0")
        if len(significant) > len(str(TABLE_BUDGET)):
            raise ParseError(
                f"{keyword} count of {len(significant):,} digits is past the table "
                f"budget of {TABLE_BUDGET:,} entries",
                line,
            )
        count = _integer(tokens[0], line)
        if count < 1:
            raise ParseError(f"{keyword} count must be positive", line)
        names = None
    else:
        for name in tokens:
            if name == "*" or ":" in name:
                raise ParseError(
                    f"name '{name}' cannot be written in a slot ('*' is the wildcard, "
                    "':' separates slots)",
                    line,
                )
        if len(set(tokens)) != len(tokens):
            raise ParseError(f"duplicate {keyword} name", line)
        count, names = len(tokens), list(tokens)
    sizes[keyword] = count
    n, na, no = sizes["states"], sizes["actions"], sizes["observations"]
    _within_budget("transition", na * n * n, line)
    _within_budget("observation", na * n * no, line)
    _within_budget("name", NAME_ENTRIES * (n + na + no), line)
    return names or [f"{keyword[0]}{i}" for i in range(count)]


def _declarations(stmts):
    """``(discount, states, actions, observations, start, entries)``."""
    discount = None
    states = actions = observations = None
    start_stmt = None
    first = {}
    kernel_stmts = []
    sizes = {"states": 1, "actions": 1, "observations": 1}
    for st in stmts:
        if st.keyword in ("T", "O", "R", "start") and (
            states is None or actions is None or observations is None
        ):
            raise ParseError(
                f"'{st.keyword}' entry before states/actions/observations are declared",
                st.line,
            )
        if st.keyword in ("T", "O", "R"):
            kernel_stmts.append(st)
            continue
        if st.keyword in first:
            raise ParseError(
                f"second '{st.keyword}' declaration; the first is on line {first[st.keyword]}",
                st.line,
            )
        first[st.keyword] = st.line
        if st.keyword == "discount":
            discount = float(_floats(st.tokens(), 1, st.line, "discount")[0])
        elif st.keyword == "values":
            tokens = st.tokens()
            if tokens == ["cost"]:
                raise UnsupportedConstructError(
                    "'values: cost' is not supported; express the model with rewards",
                    st.line,
                )
            if tokens != ["reward"]:
                raise ParseError(f"bad values declaration {tokens}", st.line)
        elif st.keyword == "states":
            states = _names_from_tokens(st.tokens(), "states", st.line, sizes)
        elif st.keyword == "actions":
            actions = _names_from_tokens(st.tokens(), "actions", st.line, sizes)
        elif st.keyword == "observations":
            observations = _names_from_tokens(st.tokens(), "observations", st.line, sizes)
        else:
            start_stmt = st
    if discount is None:
        raise ParseError("missing discount declaration")
    if states is None or actions is None or observations is None:
        raise ParseError("missing states/actions/observations declaration")
    return discount, states, actions, observations, start_stmt, kernel_stmts


def _parse_start(st, sn, n):
    if st is None:
        return np.full(n, 1.0 / n)
    tokens = st.tokens()
    if st.mode is not None:
        chosen = np.zeros(n, dtype=bool)
        for tok in tokens:
            for s in sn.expand(sn.resolve(tok, st.line)):
                chosen[s] = True
        if st.mode == "exclude":
            chosen = ~chosen
        if not chosen.any():
            raise ParseError("start set is empty", st.line)
        return chosen / chosen.sum()
    if len(tokens) == 1:
        tok = tokens[0]
        if tok == "uniform":
            return np.full(n, 1.0 / n)
        # with one state, "1" is the probability vector and "0" the state
        if tok in sn.index or (
            re.fullmatch(r"\d+", tok) and (n > 1 or _integer(tok, st.line) < n)
        ):
            belief = np.zeros(n)
            belief[sn.resolve(tok, st.line)] = 1.0
            return belief
    vals = np.array(_floats(tokens, n, st.line, "start belief"))
    if not is_distribution(vals):
        raise ParseError("start belief is not a probability vector", st.line)
    return vals / vals.sum()


class _LoopStmt:
    """A statement with its value tokens split up front, as the loops read it."""

    def __init__(self, st):
        self.keyword = st.keyword
        self.slots = st.slots
        self.line = st.line
        self.tokens = st.tokens()


class _NameSpace:
    """Resolve a state/action/observation token to an index (None = '*')."""

    def __init__(self, kind, names):
        self.kind = kind
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def resolve(self, token, line):
        if token == "*":
            return None
        if token in self.index:
            return self.index[token]
        if re.fullmatch(r"\d+", token):
            i = _integer(token, line)
            if 0 <= i < len(self.names):
                return i
        raise ParseError(f"unknown {self.kind} '{token}'", line)

    def expand(self, idx):
        return range(len(self.names)) if idx is None else (idx,)


def _floats(tokens, expected, line, what):
    if len(tokens) != expected:
        raise ParseError(
            f"{what}: expected {expected} numbers, found {len(tokens)}", line
        )
    try:
        vals = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}", line) from None
    for tok, val in zip(tokens, vals):
        if not math.isfinite(val):
            raise ParseError(f"{what}: non-finite number '{tok}'", line)
    return vals


def _keyword_matrix(word, rows, cols, line):
    if word == "identity":
        if rows != cols:
            raise ParseError(
                f"identity matrix needs square shape, have {rows}x{cols}", line
            )
        return np.eye(rows)
    if word == "uniform":
        return np.full((rows, cols), 1.0 / cols)
    raise ParseError(f"unknown matrix keyword '{word}'", line)


def _matrix_tokens(st, rows, cols, what):
    """Body of a 1-slot T/O entry: keyword matrix or rows*cols numbers."""
    if len(st.tokens) == 1 and st.tokens[0] in _MATRIX_WORDS:
        return _keyword_matrix(st.tokens[0], rows, cols, st.line)
    vals = _floats(st.tokens, rows * cols, st.line, what)
    return np.array(vals).reshape(rows, cols)


def _row_tokens(st, cols, what):
    if len(st.tokens) == 1 and st.tokens[0] == "uniform":
        return np.full(cols, 1.0 / cols)
    return np.array(_floats(st.tokens, cols, st.line, what))


def _apply_transition(st, transition, sn, an):
    n = len(sn.names)
    a_idx = an.resolve(st.slots[0], st.line)
    if len(st.slots) == 1:
        mat = _matrix_tokens(st, n, n, "transition matrix")
        for a in an.expand(a_idx):
            transition[:, a, :] = mat
    elif len(st.slots) == 2:
        s_idx = sn.resolve(st.slots[1], st.line)
        row = _row_tokens(st, n, "transition row")
        for a in an.expand(a_idx):
            for s in sn.expand(s_idx):
                transition[s, a, :] = row
    elif len(st.slots) == 3:
        s_idx = sn.resolve(st.slots[1], st.line)
        s2_idx = sn.resolve(st.slots[2], st.line)
        val = _floats(st.tokens, 1, st.line, "transition entry")[0]
        for a in an.expand(a_idx):
            for s in sn.expand(s_idx):
                for s2 in sn.expand(s2_idx):
                    transition[s, a, s2] = val
    else:
        raise ParseError("T entry takes 1-3 ':' fields", st.line)


def _apply_observation(st, obs_kernel, sn, an, on):
    n, no = len(sn.names), len(on.names)
    a_idx = an.resolve(st.slots[0], st.line)
    if len(st.slots) == 1:
        mat = _matrix_tokens(st, n, no, "observation matrix")
        for a in an.expand(a_idx):
            obs_kernel[:, a, :] = mat
    elif len(st.slots) == 2:
        s2_idx = sn.resolve(st.slots[1], st.line)
        row = _row_tokens(st, no, "observation row")
        for a in an.expand(a_idx):
            for s2 in sn.expand(s2_idx):
                obs_kernel[s2, a, :] = row
    elif len(st.slots) == 3:
        s2_idx = sn.resolve(st.slots[1], st.line)
        o_idx = on.resolve(st.slots[2], st.line)
        val = _floats(st.tokens, 1, st.line, "observation entry")[0]
        for a in an.expand(a_idx):
            for s2 in sn.expand(s2_idx):
                for o in on.expand(o_idx):
                    obs_kernel[s2, a, o] = val
    else:
        raise ParseError("O entry takes 1-3 ':' fields", st.line)


def _apply_reward(st, reward_raw, sn, an, on):
    n, no = len(sn.names), len(on.names)
    a_idx = an.resolve(st.slots[0], st.line)
    if len(st.slots) == 4:
        s_idx = sn.resolve(st.slots[1], st.line)
        s2_idx = sn.resolve(st.slots[2], st.line)
        o_idx = on.resolve(st.slots[3], st.line)
        val = _floats(st.tokens, 1, st.line, "reward entry")[0]
        for a in an.expand(a_idx):
            for s in sn.expand(s_idx):
                for s2 in sn.expand(s2_idx):
                    for o in on.expand(o_idx):
                        reward_raw[a, s, s2, o] = val
    elif len(st.slots) == 3:
        s_idx = sn.resolve(st.slots[1], st.line)
        s2_idx = sn.resolve(st.slots[2], st.line)
        row = np.array(_floats(st.tokens, no, st.line, "reward row"))
        for a in an.expand(a_idx):
            for s in sn.expand(s_idx):
                for s2 in sn.expand(s2_idx):
                    reward_raw[a, s, s2, :] = row
    elif len(st.slots) == 2:
        s_idx = sn.resolve(st.slots[1], st.line)
        vals = _floats(st.tokens, n * no, st.line, "reward matrix")
        mat = np.array(vals).reshape(n, no)
        for a in an.expand(a_idx):
            for s in sn.expand(s_idx):
                reward_raw[a, s, :, :] = mat
    else:
        raise ParseError("R entry takes 2-4 ':' fields", st.line)


def _collect_rewards(transition, obs_kernel, reward_raw, states, actions, observations):
    """Bin rewards on reachable (s,a,s',o) triples and normalize into [0,1].

    Emission is tied to (action, arriving state, observation); a reward that
    differs across departing states on reachable triples cannot be expressed
    that way and is rejected.
    """
    n, na, no = len(states), len(actions), len(observations)
    # value per (a, s', o), taken from any reachable departing state
    value = np.zeros((na, n, no))
    defined = np.zeros((na, n, no), dtype=bool)
    for a in range(na):
        for s2 in range(n):
            support_s = np.nonzero(transition[:, a, s2] > 0)[0]
            if support_s.size == 0:
                continue
            for o in range(no):
                if obs_kernel[s2, a, o] <= 0:
                    continue
                vals = reward_raw[a, support_s, s2, o]
                with np.errstate(over="ignore"):
                    spread = np.ptp(vals)
                if spread > 1e-12:
                    raise ValidationError(
                        f"reward for (action={actions[a]}, arriving state="
                        f"{states[s2]}, observation={observations[o]}) varies "
                        "with the departing state; signals condition on the "
                        "arriving state only, so this model is not expressible"
                    )
                value[a, s2, o] = vals[0]
                defined[a, s2, o] = True

    reachable_vals = value[defined]
    if reachable_vals.size == 0:
        reachable_vals = np.array([0.0])
    distinct = np.unique(reachable_vals)
    if distinct.size > DEFAULT_REWARD_CAP:
        raise ValidationError(
            f"model uses {distinct.size} distinct reward values, above the "
            f"cap of {DEFAULT_REWARD_CAP}; outside the finite-reward-set assumption"
        )

    lo, hi = distinct[0], distinct[-1]
    if lo >= 0.0 and hi <= 1.0:
        scale, offset = 1.0, 0.0
    else:
        with np.errstate(over="ignore"):
            width = hi - lo
        if not np.isfinite(width):
            raise ValidationError(
                f"reward values from {lo:.12g} to {hi:.12g} span more than a float holds"
            )
        scale = width if hi > lo else 1.0
        offset = lo
    reward_values = (distinct - offset) / scale

    lookup = {v: i for i, v in enumerate(distinct)}
    reward_index = np.zeros((na, n, no), dtype=np.int64)
    for a in range(na):
        for s2 in range(n):
            for o in range(no):
                if defined[a, s2, o]:
                    reward_index[a, s2, o] = lookup[value[a, s2, o]]
    return reward_values, reward_index, float(scale), float(offset)


def _signal_kernel(obs_kernel, reward_index, nr):
    n, na, no = obs_kernel.shape
    signal_kernel = np.zeros((n, na, no * nr))
    for a in range(na):
        for s2 in range(n):
            for o in range(no):
                signal_kernel[s2, a, o * nr + reward_index[a, s2, o]] = obs_kernel[
                    s2, a, o
                ]
    return signal_kernel


def _loop_tables(kernel_stmts, states, actions, observations):
    sn = _NameSpace("state", states)
    an = _NameSpace("action", actions)
    on = _NameSpace("observation", observations)
    n, na, no = len(states), len(actions), len(observations)
    for st in kernel_stmts:
        # an R entry that names a departing state (or has no slot for one)
        if st.keyword == "R" and st.slots[1:2] != ["*"]:
            _within_budget("reward", na * n * n * no, st.line)
            break
    transition = np.zeros((n, na, n))
    obs_kernel = np.zeros((n, na, no))
    reward_raw = np.zeros((na, n, n, no))
    for st in map(_LoopStmt, kernel_stmts):
        if st.keyword == "T":
            _apply_transition(st, transition, sn, an)
        elif st.keyword == "O":
            _apply_observation(st, obs_kernel, sn, an, on)
        else:
            _apply_reward(st, reward_raw, sn, an, on)
    return transition, obs_kernel, reward_raw


def reference_parse(text):
    discount, states, actions, observations, start_stmt, kernel_stmts = (
        _declarations(_split_statements(text))
    )
    transition, obs_kernel, reward_raw = _loop_tables(
        kernel_stmts, states, actions, observations
    )
    n = len(states)
    initial_belief = _parse_start(start_stmt, _NameSpace("state", states), n)
    with np.errstate(over="ignore", invalid="ignore"):
        t_sums, o_sums = transition.sum(axis=2), obs_kernel.sum(axis=2)
    check_rows(t_sums, "transition", states, actions)
    transition /= t_sums[..., None]
    check_rows(o_sums, "observation", states, actions, arriving=True)
    obs_kernel /= o_sums[..., None]
    reward_values, reward_index, scale, offset = _collect_rewards(
        transition, obs_kernel, reward_raw, states, actions, observations
    )
    model = PomdpModel(
        states=states,
        actions=actions,
        observations=observations,
        reward_values=reward_values,
        transition=transition,
        signal_kernel=_signal_kernel(obs_kernel, reward_index, len(reward_values)),
        discount=discount,
        initial_belief=initial_belief,
        reward_scale=scale,
        reward_offset=offset,
    )
    model.validate()
    return model


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_outcome(text):
    """Both loaders build the same model, or fail alike; True on a model."""
    try:
        want = reference_parse(text)
    except PsrPlanError as exc:
        with pytest.raises(PsrPlanError) as err:
            parse_pomdp(text)
        assert type(err.value) is type(exc)
        assert str(err.value) == str(exc)
        return False
    got = parse_pomdp(text)
    assert (got.states, got.actions, got.observations) == (
        want.states, want.actions, want.observations
    )
    assert got.discount == want.discount
    for name in ("transition", "signal_kernel", "initial_belief", "reward_values"):
        assert_bytes_equal(getattr(got, name), getattr(want, name))
    assert type(got.reward_scale) is float and got.reward_scale == want.reward_scale
    assert type(got.reward_offset) is float and got.reward_offset == want.reward_offset
    return True


@pytest.mark.parametrize("name", ["tiger", "fair_coin", "clones"])
def test_data_models_match_reference(name):
    assert assert_same_outcome((DATA / f"{name}.POMDP").read_text(encoding="utf-8"))


def test_unicode_whitespace_in_entry_heads_matches_reference():
    """U+00A0, U+2003 and U+3000 separate a head's fields as a space does:
    ``_ENTRY_HEAD``'s ``\\s`` and ``str.split`` read the same whitespace."""
    plain = (DATA / "tiger.POMDP").read_text(encoding="utf-8")
    seps = ["\u00a0", "\u2003", "\u3000"]
    lines = []
    for k, line in enumerate(plain.splitlines()):
        if line[:1] in ("T", "O", "R"):
            line = line.replace(":", seps[k % 3] + ":", 1)
            line = re.sub(" ", lambda m: seps[m.start() % 3], line)
        lines.append(line)
    text = "\n".join(lines) + "\n"
    assert all(sep in text for sep in seps) and text.count(" ") < plain.count(" ")
    assert assert_same_outcome(text)
    got, want = parse_pomdp(text), parse_pomdp(plain)
    for name in ("transition", "signal_kernel", "initial_belief", "reward_values"):
        assert_bytes_equal(getattr(got, name), getattr(want, name))


def test_rows_that_sum_to_nan_are_refused_by_the_row_check():
    """Finite entries can sum to NaN: numpy sums a row of 16 in eight
    partial sums, and 1e308 at 0 and 8 against -1e308 at 1 and 9 give
    inf - inf.  With every transition row so, no (a, s', o) is reachable;
    the row check refuses the file before the rewards are binned."""
    with pytest.raises(ValidationError, match="sums to nan"):
        check_rows(np.array([[math.nan]]), "transition", ["s"], ["a"])
    n = 16
    row = ["0"] * n
    row[0] = row[8] = "1e308"
    row[1] = row[9] = "-1e308"
    text = PREAMBLE.format(n=n, na=1, no=1) + "".join(
        f"T: 0 : {s}\n{' '.join(row)}\n" for s in range(n)
    ) + "O: * uniform\nR: * : * : * : * 1\n"
    assert not assert_same_outcome(text)
    with pytest.raises(ValidationError, match=r"transition row \(state=s0, action=a0\) sums to"):
        parse_pomdp(text)


PREAMBLE = (
    "discount: 0.75\nvalues: reward\nstates: {n}\nactions: {na}\n"
    "observations: {no}\nstart: uniform\n"
)


KEYWORD_FORMS = [
    PREAMBLE.format(n=3, na=2, no=3) + body
    for body in (
        "T: * identity\nO: * uniform\nR: * : * : * : * 1.5\n",
        "T: * uniform\nT: a1 identity\nO: a0 identity\nO: a1 uniform\n"
        "R: a1 : * : s2 : o1 -4\n",
        "T: * : * uniform\nT: a0 : s1 : * 0.0\nT: a0 : s1 : s2 1.0\n"
        "O: * : s0 uniform\nO: * : s1 uniform\nO: * : s2 uniform\n"
        "R: * : *\n1 2 3\n4 5 6\n7 8 9\n",
    )
]


def test_keyword_forms_match_reference():
    for text in KEYWORD_FORMS:
        assert assert_same_outcome(text)


# Each entry form: keyword, the kind of each ':' slot (action, state,
# observation), and the rows and columns of its numbers.
def _forms(n, no):
    return [
        ("T", "a", n, n), ("T", "as", 1, n), ("T", "ass", 1, 1),
        ("O", "a", n, no), ("O", "as", 1, no), ("O", "aso", 1, 1),
        ("R", "as", n, no), ("R", "ass", 1, no), ("R", "asso", 1, 1),
    ]


def _wildcard_masks(count):
    """Every choice of '*' or a name for ``count`` slots."""
    return [[bool(m >> k & 1) for k in range(count)] for m in range(1 << count)]


def _slots(rng, kinds, sizes, mask):
    """A name, an index or '*' for each slot."""
    out = []
    for kind, wildcard in zip(kinds, mask):
        i = int(rng.integers(sizes[kind]))
        out.append("*" if wildcard else f"{kind}{i}" if rng.random() < 0.7 else str(i))
    return " : ".join(out)


def _matrix(draw, rows):
    """``rows`` lines of numbers; a single row stays on the entry's line."""
    sep = " " if rows == 1 else "\n"
    return sep + "\n".join(" ".join(repr(float(v)) for v in draw()) for _ in range(rows))


def _sizes(rng):
    """Numbers of states (2-4), actions (1-3) and observations (1-3)."""
    return int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))


def _shuffled(rng, entries):
    return [entries[i] for i in rng.permutation(len(entries))]


def _kernel_entries(rng, n, na, no, departing_wildcard=False):
    """T (1-3 slots), O (1-3) and R (2-4) entries, '*' in every slot
    position, in a shuffled order, so specific entries override wildcards
    and wildcards override specific entries.  With ``departing_wildcard``
    every R entry has '*' as its departing state."""
    sizes = {"a": na, "s": n, "o": no}
    entries = []
    for key, kinds, rows, cols in _forms(n, no):
        for mask in _wildcard_masks(len(kinds)):
            if key == "R":
                mask[1] = mask[1] or departing_wildcard
            body = _matrix(lambda: rng.uniform(-3.0, 3.0, size=cols), rows)
            if key != "R" and cols > 1 and rng.random() < 0.3:
                body = " uniform"
            elif key == "T" and rows > 1 and rng.random() < 0.3:
                body = " identity"
            entries.append(f"{key}: {_slots(rng, kinds, sizes, mask)}{body}")
    return _shuffled(rng, entries)


def assert_same_tables(text):
    """Both loaders fill the same raw tables, before any row check."""
    _, states, actions, observations, _, kernel_stmts = _declarations(
        _split_statements(text)
    )
    got = raw_tables(text)
    want = _loop_tables(kernel_stmts, states, actions, observations)
    for table, ref in zip(got, want):
        assert_bytes_equal(table, ref)
    return got[2]


def has_departing_axis(reward_raw):
    """Whether the loader filled rewards per departing state, rather than
    broadcasting one value over them."""
    return reward_raw.strides[1] != 0


@pytest.mark.parametrize("seed", range(24))
def test_fill_tables_match_reference(seed):
    """Raw tables, before any row check: every entry form, in any order.
    From seed 12 on, every R entry has '*' as its departing state, and the
    reward table is one value broadcast over departing states."""
    lean = seed >= 12
    rng = np.random.default_rng(seed)
    n, na, no = _sizes(rng)
    entries = _kernel_entries(rng, n, na, no, lean) + _kernel_entries(rng, n, na, no, lean)
    text = PREAMBLE.format(n=n, na=na, no=no) + "\n".join(entries) + "\n"
    assert has_departing_axis(assert_same_tables(text)) != lean


DEPARTING_PREAMBLE = (
    PREAMBLE.format(n="s0 s1", na="go", no="o0") + "T: go uniform\nO: go uniform\n"
)


def test_departing_entry_overwritten_by_a_wildcard_matches_reference():
    """An entry that names a departing state keeps the departing axis even
    once a later wildcard entry overwrites it; the rewards then agree."""
    text = DEPARTING_PREAMBLE + "R: go : s0 : * : * 5.0\nR: go : * : * : * 1.0\n"
    assert has_departing_axis(assert_same_tables(text))
    assert assert_same_outcome(text)


def test_wildcard_overridden_per_departing_state_is_refused_as_the_reference():
    """A wildcard reward overridden by entries that name departing states
    and disagree is refused with the reference's message."""
    text = (
        DEPARTING_PREAMBLE
        + "R: go : * : * : * 1.0\nR: go : s0 : * : * 5.0\nR: go : s1 : * : o0 2.0\n"
    )
    assert has_departing_axis(assert_same_tables(text))
    assert not assert_same_outcome(text)
    with pytest.raises(ValidationError, match="varies with the departing state"):
        parse_pomdp(text)


def test_wildcard_rewards_read_without_the_departing_check_match_the_dense_read():
    """Rewards with a wildcard departing state are read from the broadcast
    row; one more entry naming a departing state, setting the reward it
    already has, makes the table dense and the departing-state check run.
    Both give the reference's model, and so the same one."""
    lean = PREAMBLE.format(n=3, na=2, no=2) + (
        "T: 0 uniform\nT: 1 identity\nO: * uniform\n"
        "R: * : * : 0 : * -1.0\nR: * : * : 1 : 0 4.0\nR: 1 : * : 2 : * 2.5\n"
    )
    dense = lean + "R: 0 : 2 : 1 : 0 4.0\n"
    assert not has_departing_axis(assert_same_tables(lean))
    assert has_departing_axis(assert_same_tables(dense))
    assert assert_same_outcome(lean) and assert_same_outcome(dense)
    got, want = parse_pomdp(lean), parse_pomdp(dense)
    assert got.reward_values.size == 4 and got.reward_scale == 5.0
    for name in ("transition", "signal_kernel", "initial_belief", "reward_values"):
        assert_bytes_equal(getattr(got, name), getattr(want, name))
    assert (got.reward_scale, got.reward_offset) == (want.reward_scale, want.reward_offset)


def _stochastic_entries(rng, key, n, na, no):
    """T or O entries of every form that keep each row stochastic: point
    masses set as a '*' row of zeros and then one entry of 1."""
    sizes = {"a": na, "s": n, "o": no}
    entries = []
    for form_key, kinds, rows, cols in _forms(n, no):
        if form_key != key:
            continue
        for mask in _wildcard_masks(len(kinds)):
            head = f"{key}: {_slots(rng, kinds[:2], sizes, mask)}"
            if len(kinds) < 3:
                body = _matrix(lambda: rng.dirichlet(np.ones(cols)), rows)
                entries.append(head + (body if rng.random() < 0.7 else " uniform"))
            elif mask[2]:
                width = sizes[kinds[2]]
                entries.append(f"{head} : * {1.0 / width!r}")
            else:
                last = _slots(rng, kinds[2], sizes, [False])
                entries.append(f"{head} : * 0.0\n{head} : {last} 1.0")
    return [f"{key}: * uniform"] + _shuffled(rng, entries)


def _reward_entries(rng, n, na, no, departing_wildcard):
    """R entries of every form over four values; with
    ``departing_wildcard`` the departing state is always '*'."""
    sizes = {"a": na, "s": n, "o": no}
    values = [-2.0, 0.5, 3.0, 7.25]
    entries = []
    for key, kinds, rows, cols in _forms(n, no):
        if key != "R":
            continue
        for mask in _wildcard_masks(len(kinds)):
            mask[1] = mask[1] or departing_wildcard
            body = _matrix(lambda: rng.choice(values, size=cols), rows)
            entries.append(f"R: {_slots(rng, kinds, sizes, mask)}{body}")
    return _shuffled(rng, entries)


def generated_model_text(seed):
    """A model with T, O and R entries of every form, stochastic rows and
    four reward values; even seeds give the departing state a wildcard
    in every reward."""
    rng = np.random.default_rng(100 + seed)
    n, na, no = _sizes(rng)
    entries = (
        _stochastic_entries(rng, "T", n, na, no)
        + _stochastic_entries(rng, "O", n, na, no)
        + _reward_entries(rng, n, na, no, departing_wildcard=seed % 2 == 0)
    )
    return PREAMBLE.format(n=n, na=na, no=no) + "\n".join(entries) + "\n"


def test_generated_models_match_reference():
    built = sum(assert_same_outcome(generated_model_text(seed)) for seed in range(40))
    # half the texts give the departing state a wildcard in every reward
    assert built >= 20


ERROR_CORPUS = {
    "departing_reward": (
        PREAMBLE.format(n="s0 s1", na="go", no="o0")
        + "T: go uniform\nO: go uniform\nR: go : s0 : * : * 1.0\nR: go : s1 : * : * 5.0\n",
        ValidationError,
    ),
    "reward_cap": (
        # one more distinct reward than the cap: 13 per arriving state
        PREAMBLE.format(n=5, na=1, no=13)
        + "T: * uniform\nO: * uniform\n"
        + "".join(f"R: * : * : s{s} {' '.join(str(13 * s + o) for o in range(13))}\n"
                  for s in range(5)),
        ValidationError,
    ),
    "substochastic_row": (
        PREAMBLE.format(n="s0 s1", na="go", no="o0")
        + "T: go : s0 : s1 0.9\nT: go : s1 : s1 1.0\nO: go uniform\n",
        ValidationError,
    ),
    "bad_number": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: * : * 0.5 x\n",
        ParseError,
    ),
    "inf_entry": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: * uniform\nO: * uniform\nR: * : * : * : * -inf\n",
        ParseError,
    ),
    "overflow_in_a_matrix": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: a0\n0.5 0.5\n1e999 0\n",
        ParseError,
    ),
    "misspelled_directive_after_an_entry": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: * uniform\nobs: 1\nO: * uniform\n",
        ParseError,
    ),
    # every head is read before any declaration, so the directive at line 8
    # is reported ahead of the empty actions declaration at line 4
    "directive_after_an_empty_declaration": (
        PREAMBLE.format(n=2, na="", no=1) + "T: * uniform\nobs: 1\n",
        ParseError,
    ),
    # a word is letters as str.isalpha reads them, so a non-ASCII word and
    # a colon opens a statement, after an entry or inside its body, and a
    # body line that opens with such a word and no colon continues the body
    "non_ascii_directive_after_an_entry": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: * uniform\n\u00e9tats: 3\nO: * uniform\n",
        ParseError,
    ),
    "non_ascii_directive_inside_a_body": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: 0\n0.5 0.5\n\u00e9tats: 3\n0.5 0.5\n",
        ParseError,
    ),
    "non_ascii_word_on_a_body_line": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: 0\n0.5 0.5\n\u00c9tage 4\nO: * uniform\n",
        ParseError,
    ),
    "second_states_after_the_entries": (
        PREAMBLE.format(n=2, na=1, no=1) + "T: * uniform\nO: * uniform\nstates: 3\n",
        ParseError,
    ),
    # no slot can name a state '*' or 'a:b'
    "wildcard_state_name": (
        PREAMBLE.format(n="* b", na=1, no=1).replace("uniform", "*"),
        ParseError,
    ),
    "state_name_with_a_colon": (
        PREAMBLE.format(n="a:b c", na=1, no=1) + "T: * uniform\nO: * uniform\n",
        ParseError,
    ),
    # more digits than int() reads: an index, a lone start token, a count
    "long_index": (
        PREAMBLE.format(n=2, na=1, no=1) + f"T: {'0' * 5000} : 0 : 0 1.0\n", ParseError,
    ),
    "long_start_token": (
        PREAMBLE.format(n=1, na=1, no=1).replace("uniform", "0" * 4301), ParseError,
    ),
    "long_count": (PREAMBLE.format(n="1" * 4301, na=1, no=1), ParseError),
    # finite rewards whose range or departing-state spread overflows
    "reward_range_overflows": (
        PREAMBLE.format(n=2, na=1, no="o0 o1")
        + "T: * uniform\nO: * uniform\nR: * : * : * : o0 1e308\nR: * : * : * : o1 -1e308\n",
        ValidationError,
    ),
    "departing_spread_overflows": (
        PREAMBLE.format(n=2, na=1, no=1)
        + "T: * uniform\nO: * uniform\nR: * : s0 : * : * 1e308\nR: * : s1 : * : * -1e308\n",
        ValidationError,
    ),
    "start_sum_overflows": (
        PREAMBLE.format(n=2, na=1, no=1).replace("uniform", "1e308 1e308")
        + "T: * uniform\nO: * uniform\n",
        ParseError,
    ),
}

# Malformed T/O/R entries on 2 states, 1 action and 3 observations, each
# after a valid T and O: a keyword where none or another is allowed, a
# non-square identity, a slot count out of range (after an unknown action,
# the action is reported), and a wrong number count at each rank.
BAD_ENTRIES = {
    "keyword_reward_matrix": "R: go : s0 uniform",
    "keyword_reward_row": "R: go : s0 : s1 identity",
    "keyword_reward_entry": "R: go : s0 : s1 : o0 uniform",
    "identity_transition_row": "T: go : s0 identity",
    "uniform_transition_entry": "T: go : s0 : s1 uniform",
    "identity_observation_row": "O: go : s0 identity",
    "identity_not_square": "O: go identity",
    "reward_too_few_slots": "R: go 1.0",
    "transition_too_many_slots": "T: go : s0 : s1 : s1 1",
    "observation_too_many_slots": "O: go : s0 : o0 : o1 1",
    "unknown_action_before_slot_count": "T: nope : a : b : c : d 1",
    "count_transition_matrix": "T: go\n0.5 0.5\n1.0",
    "count_transition_row": "T: go : s0 0.5 0.25 0.25",
    "count_transition_row_continued": "T: go : s0 0.5 0.5\n0.25",
    "count_transition_entry": "T: go : s0 : s1 0.5 0.5",
    "count_observation_matrix": "O: go\n0.5 0.5 0.0\n1.0 0.0",
    "count_observation_row": "O: go : s1 0.5 0.5",
    "count_observation_entry": "O: go : s1 : o2 1 0",
    "count_reward_matrix": "R: go : s0\n1 2 3\n4 5",
    "count_reward_row": "R: go : * : s1 1 2 3 4",
    "count_reward_entry": "R: go : s0 : s1 : o1 1 2",
}
for _name, _entry in BAD_ENTRIES.items():
    ERROR_CORPUS[f"entry_{_name}"] = (
        PREAMBLE.format(n="s0 s1", na="go", no="o0 o1 o2")
        + f"T: go uniform\nO: go uniform\n{_entry}\n",
        ParseError,
    )

# Bad rows inside a run of one-line T rows on 2 states, each after valid
# rows of the same run, and the error each must report; an unknown slot is
# reported ahead of a later bad number in the same run.
RUN_ERRORS = {
    "bad_token": (
        "T: go : s1 0.5 x", "line 9: transition row: could not convert string to float: 'x'"
    ),
    "short_row": ("T: go : s1 1.0", "line 9: transition row: expected 2 numbers, found 1"),
    "non_finite": ("T: go : s1 0.5 nan", "line 9: transition row: non-finite number 'nan'"),
    "unknown_slot_first": (
        "T: go : s9 0.5 0.5\nT: go : s1 0.5 x", "line 9: unknown state 's9'"
    ),
}


def _run_error_text(name):
    return PREAMBLE.format(n="s0 s1", na="go", no="o0") + (
        f"O: go uniform\nT: go : s0 0.5 0.5\n{RUN_ERRORS[name][0]}\nT: go : s0 0.25 0.75\n"
    )


for _name in RUN_ERRORS:
    ERROR_CORPUS[f"run_{_name}"] = (_run_error_text(_name), ParseError)


@pytest.mark.parametrize("name", sorted(RUN_ERRORS))
def test_errors_inside_a_run(name):
    text = _run_error_text(name)
    with pytest.raises(ParseError) as err:
        parse_pomdp(text)
    assert str(err.value) == RUN_ERRORS[name][1]
    assert err.value.line == 9


# Valid runs of one-line entries on 2 states, 1 action and 2 observations:
# rows only ``float`` reads or a keyword row among numeric rows, separators
# other than a space, '*' slots, and one-column reward entries.
RUN_TEXTS = {
    "uniform_row_in_a_run": "T: go : s0 0.5 0.5\nT: go : s1 uniform\nT: go : s0 0.25 0.75\n"
    "O: go : s0 0.5 0.5\nO: go : s1 0.125 0.875\n",
    "underscores_and_arabic_indic_digits": "T: go : s0 0.5 0.5\nT: go : s1 0.2_5 0.75\n"
    "T: go : s0 \u0660.\u0662\u0665 0.75\nO: go : * 0.5 0.5\nO: go : s1 \u0661 0\n",
    "non_breaking_spaces": "T: go : s0 0.5\u00a00.5\nT: go : s1 0.25\u00a0 0.75\n"
    "O: go : s0\u00a00.5 0.5\nO: go : s1 0.125\u00a00.875\n",
    "wildcard_slots": "T: * : * 0.5 0.5\nT: go : * 0.25 0.75\nT: * : s1 0.125 0.875\n"
    "O: * : * 0.5 0.5\nO: go : s0 1 0\n",
    "one_column_rewards": "T: go uniform\nO: go uniform\nR: go : * : s0 : o0 1.5\n"
    "R: go : * : s1 : o0 2.5\nR: * : * : s0 : o1 -1\nR: go : * : s1 : o1 0.25\n",
}


@pytest.mark.parametrize("name", sorted(RUN_TEXTS))
def test_runs_match_reference(name):
    text = PREAMBLE.format(n="s0 s1", na="go", no="o0 o1") + RUN_TEXTS[name]
    assert assert_same_outcome(text)
    assert_same_tables(text)


@pytest.mark.parametrize("case", sorted(ERROR_CORPUS))
def test_error_corpus_matches_reference(case):
    text, kind = ERROR_CORPUS[case]
    with pytest.raises(kind):
        reference_parse(text)
    assert not assert_same_outcome(text)


@pytest.mark.parametrize(
    "case, message",
    [
        ("non_ascii_directive_after_an_entry", "line 8: unrecognized directive '\u00e9tats'"),
        ("non_ascii_directive_inside_a_body", "line 9: unrecognized directive '\u00e9tats'"),
        ("non_ascii_word_on_a_body_line",
         "line 7: transition matrix: could not convert string to float: '\u00c9tage'"),
    ],
)
def test_a_non_ascii_word_is_read_as_a_word(case, message):
    with pytest.raises(ParseError) as err:
        parse_pomdp(ERROR_CORPUS[case][0])
    assert str(err.value) == message


def test_the_last_entry_for_a_target_wins_inside_a_run():
    """One run of one-line ``T: a : s`` rows sets (go, state index 1)
    fifteen times, never twice in a row.  The state names are digits, so the name
    ``0`` is index 1 and the index 1 can be written only as ``01``; the
    action is named or indexed.  The last row wins, byte for byte as in
    the entry-by-entry reference.  Every row is dyadic and sums to 1, so
    the normalized rows are the written ones."""
    run = [
        ("go : 0", "0.125 0.875"), ("stay : 1", "0.5 0.5"), ("0 : 0", "0.375 0.625"),
        ("go : 1", "0.1875 0.8125"), ("0 : 01", "0.625 0.375"), ("1 : 00", "0.4375 0.5625"),
        ("go : 0", "1 0"), ("stay : 0", "0.0625 0.9375"), ("0 : 0", "0.25 0.75"),
        ("stay : 00", "0.75 0.25"),
    ]
    run = run * 3  # long enough to be written by columns
    assert len(run) >= cassandra._SHORT_RUN
    text = PREAMBLE.format(n="1 0", na="go stay", no=1) + "".join(
        f"T: {head} {row}\n" for head, row in run
    ) + "O: * uniform\n"
    assert_same_tables(text)
    assert assert_same_outcome(text)
    transition = parse_pomdp(text).transition  # [s, a, s']
    assert transition[1, 0].tolist() == [0.25, 0.75]
    assert transition[0, 0].tolist() == [0.1875, 0.8125]
    assert transition[0, 1].tolist() == [0.75, 0.25]
    assert transition[1, 1].tolist() == [0.0625, 0.9375]


def long_run_text(seed):
    """Runs long enough to be written by columns, of every T, O and R form
    with one-line bodies: each slot a name, an index, an index written
    with a leading zero (applied entry by entry) or '*', so the runs break
    into stretches of one '*' pattern, repeat targets and hold irregular
    entries."""
    rng = np.random.default_rng(300 + seed)
    n, na, no = _sizes(rng)
    sizes = {"a": na, "s": n, "o": no}
    lines = []
    for key, kinds, rows, cols in _forms(n, no):
        if rows != 1:
            continue
        count = int(rng.integers(cassandra._SHORT_RUN, 3 * cassandra._SHORT_RUN))
        for _ in range(count):
            slots = []
            for kind in kinds:
                i, form = int(rng.integers(sizes[kind])), rng.random()
                slots.append(
                    "*" if form < 0.3 else f"0{i}" if form < 0.4 else str(i) if form < 0.6
                    else f"{kind}{i}"
                )
            body = " ".join(repr(float(v)) for v in rng.uniform(-3.0, 3.0, size=cols))
            lines.append(f"{key}: {' : '.join(slots)} {body}")
    return PREAMBLE.format(n=n, na=na, no=no) + "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(8))
def test_long_runs_match_reference(seed):
    assert_same_tables(long_run_text(seed))


def benchmark_shaped_text(n, seed, wildcard=False):
    """The layout of the pipeline benchmark's files: every T and O row on
    the line after its ``T: a : s`` head, and one ``R: * : * : * : z``
    line per observation.  With ``wildcard`` each row's head is
    ``T: * : s``, one per state."""
    rng = np.random.default_rng(seed)
    actions, observations = ["a0", "a1"], [f"z{o}_{r}" for o in range(2) for r in range(2)]
    lines = [
        "discount: 0.9", "values: reward", "states: " + " ".join(f"s{i}" for i in range(n)),
        "actions: " + " ".join(actions), "observations: " + " ".join(observations),
        "start: " + " ".join(repr(float(p)) for p in rng.dirichlet(np.ones(n))), "",
    ]
    for key, width in (("T", n), ("O", len(observations))):
        for a in ["*"] if wildcard else actions:
            for s in range(n):
                lines.append(f"{key}: {a} : s{s}")
                lines.append(" ".join(repr(float(p)) for p in rng.dirichlet(np.ones(width))))
    lines += [f"R: * : * : * : {z} {r % 2 * 0.75!r}" for r, z in enumerate(observations)]
    return "\n".join(lines) + "\n"


def test_a_benchmark_shaped_file_matches_reference():
    text = benchmark_shaped_text(60, seed=3)
    assert 2 * 60 >= cassandra._SHORT_RUN  # each T and O run is written by columns
    assert assert_same_outcome(text)
    assert not has_departing_axis(assert_same_tables(text))


def test_wildcard_rows_in_a_long_run_are_written_from_the_run(monkeypatch):
    """``T: * : s`` and ``O: * : s`` rows, each run long enough to be read
    by columns, give the reference's tables and model, and no T or O entry
    reads its own tokens again: ``_floats`` reads the discount, the start
    and the four ``R:`` lines, a short run, only."""
    text = benchmark_shaped_text(cassandra._SHORT_RUN + 4, seed=7, wildcard=True)
    assert_same_tables(text)
    assert assert_same_outcome(text)
    read, floats = [], cassandra._floats

    def counted(tokens, expected, line, what):
        read.append(what)
        return floats(tokens, expected, line, what)

    monkeypatch.setattr(cassandra, "_floats", counted)
    parse_pomdp(text)
    assert sorted(read) == ["discount", *["reward entry"] * 4, "start belief"]


def raw_tables(text):
    stmts = cassandra._Statements(text)
    _, states, actions, observations, _ = cassandra._declarations(stmts)
    return cassandra._fill_tables(stmts, states, actions, observations)


def model_arrays(text):
    model = parse_pomdp(text)
    return [getattr(model, name)
            for name in ("transition", "signal_kernel", "initial_belief", "reward_values")]


def bytes_or_error(build, text):
    """The bytes of each array ``build`` gives, or its error's type and message."""
    try:
        arrays = build(text)
    except PsrPlanError as exc:
        return type(exc), str(exc)
    return [array.tobytes() for array in arrays]


def test_the_parse_does_not_depend_on_the_short_run_threshold(monkeypatch):
    """``_SHORT_RUN`` only chooses how a run is written: every text gives
    the same raw tables and model, or the same error, whether every run,
    each run of two or more entries, only long runs or no run is written
    by columns."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.POMDP"))]
    texts.append(benchmark_shaped_text(20, seed=5))
    texts += [text for text, _ in ERROR_CORPUS.values()]
    texts += [PREAMBLE.format(n="s0 s1", na="go", no="o0 o1") + t for t in RUN_TEXTS.values()]
    texts += KEYWORD_FORMS + [generated_model_text(seed) for seed in range(40)]
    texts += [long_run_text(seed) for seed in range(8)]
    outcomes = {}
    for short_run in (1, 2, 16, 10**9):
        monkeypatch.setattr(cassandra, "_SHORT_RUN", short_run)
        outcomes[short_run] = [
            (bytes_or_error(raw_tables, text), bytes_or_error(model_arrays, text))
            for text in texts
        ]
    assert outcomes[1] == outcomes[2] == outcomes[16] == outcomes[10**9]
    assert sum(isinstance(model, list) for _, model in outcomes[16]) >= 30


# Fragments a fuzz edit inserts: separators, keywords, start modes, numbers
# each reader takes differently, and an index longer than int() reads.  An
# edit that joins a digit to a cut-down long token declares a count of
# thousands of digits, which both readers refuse by the table budget
# before they build a name.
FUZZ_TOKENS = [
    " ", "\n", "\t", ":", "*", "#", "\u00a0", "0", "1", "01", "0.5", "-1", "1e999", "nan",
    "0.2_5", "uniform", "identity", "include", "exclude", "reward", "cost", "s0", "a0",
    "o0", "T:", "O:", "R:", "start:", "states:", "discount:", "0" * 4301,
]
FUZZ_CHARS = list("0123456789 :*.-e\nsaoTOR#")


def fuzzed_text(rng, text):
    """``text`` after one to three random edits: a span of up to 8
    characters deleted, a fragment inserted, one character replaced, or a
    line deleted, doubled or swapped with another."""
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(len(text) + 1))
        lines = text.split("\n")
        i, j = (int(k) for k in rng.integers(len(lines), size=2))
        kind = int(rng.integers(6))
        if kind == 0:
            text = text[:at] + text[at + int(rng.integers(1, 9)) :]
        elif kind == 1:
            text = text[:at] + FUZZ_TOKENS[int(rng.integers(len(FUZZ_TOKENS)))] + text[at:]
        elif kind == 2:
            text = text[:at] + FUZZ_CHARS[int(rng.integers(len(FUZZ_CHARS)))] + text[at + 1 :]
        elif kind == 3:
            text = "\n".join(lines[:i] + lines[i + 1 :])
        elif kind == 4:
            text = "\n".join(lines[: i + 1] + lines[i:])
        else:
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def test_fuzzed_texts_match_reference():
    """Seeded random edits of the data files, the generated texts and the
    long runs: each must give the reference's model bytes or its exact
    error, and nothing but a PsrPlanError may escape either reader."""
    rng = np.random.default_rng(2024)
    texts = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.POMDP"))]
    texts += [generated_model_text(seed) for seed in range(40)]
    texts += [long_run_text(seed) for seed in range(8)]
    outcomes = []
    for k in range(500):
        source = int(rng.integers(len(texts)))
        text = fuzzed_text(rng, texts[source])
        try:
            outcomes.append(assert_same_outcome(text))
        except Exception as exc:  # a mismatch, or an error other than the reference's
            raise AssertionError(f"edit {k}, of text {source}: {type(exc).__name__}") from exc
    # the edits keep some models valid and break the others
    assert 20 <= sum(outcomes) <= 480
