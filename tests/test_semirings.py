import math
import operator
import random
from functools import reduce

import pytest

from ajar import INF, QueryError, builtin_semirings, check_laws, get_semiring
from ajar.semirings import SemiringSpec, register_semiring, sample_values


@pytest.mark.parametrize("name", ["int", "qplus", "minplus", "bool01"])
def test_laws_sampled(name):
    check_laws(get_semiring(name), random.Random(0), triples=300)


def test_bool01_multiply_idempotent_flag():
    sr = get_semiring("bool01")
    assert sr.multiply_idempotent
    for a in (0, 1):
        assert sr.multiply(a, a) == a


def test_int_not_idempotent():
    assert not get_semiring("int").multiply_idempotent


def test_minplus_zero_is_sentinel_infinity():
    sr = get_semiring("minplus")
    assert sr.zero is INF
    assert sr.one == 0
    assert sr.multiply(INF, 3) is INF
    assert sr.additive("min")(INF, 7) == 7
    assert INF > 10**12 and not INF < 5


def test_minplus_runs_on_builtins():
    # INF absorbs + from either side, so min-plus's ⊗ and ⊕ are + and min
    sr = get_semiring("minplus")
    assert sr.multiply is operator.add
    assert sr.additive("min") is min
    assert 3 + INF is INF and INF + 3 is INF and -4 + INF is INF
    assert INF + INF is INF
    assert min(INF, 3) == 3 and min(3, INF) == 3
    assert min(INF, INF) is INF
    check_laws(sr, random.Random(5), triples=300)


@pytest.mark.parametrize("name", ["int", "qplus", "minplus", "bool01"])
def test_fold_is_reduce(name):
    # sum/min/max stand in for reduce(op, values, zero) on every built-in
    # semiring: same value and type, zero when empty; the pool holds zero,
    # so some of min-plus's lists hold INF
    sr = get_semiring(name)
    rng = random.Random(7)
    pool = sample_values(sr, rng, 40)
    for op_name, op in sr.additive_ops.items():
        fold = sr.fold(op_name)
        assert fold(iter(())) == sr.zero
        for size in list(range(6)) * 20:
            values = rng.choices(pool, k=size)
            want = reduce(op, values, sr.zero)
            got = fold(iter(values))
            assert got == want and type(got) is type(want), (op_name, values)


def test_fold_falls_back_to_reduce():
    # any other operator, built in or not, folds by reduce from zero
    gcd = SemiringSpec(name="gcd-test-only", domain="integer", additive_ops={"gcd": math.gcd},
                       multiply=math.lcm, zero=0, one=1, multiply_idempotent=True)
    assert gcd.fold("gcd")(iter([12, 18, 8])) == 2
    assert gcd.fold("gcd")(iter(())) == 0
    with pytest.raises(QueryError):
        gcd.fold("sum")


def test_annotation_parsing():
    mp = get_semiring("minplus")
    assert mp.parse_annotation("inf") is INF
    assert mp.parse_annotation("4") == 4
    assert mp.format_annotation(INF) == "inf"
    with pytest.raises(QueryError):
        get_semiring("bool01").parse_annotation("2")
    with pytest.raises(QueryError):
        get_semiring("qplus").parse_annotation("-1/2")


def _parsed(parse, cells):
    """Values with their types, or the error a parse raises."""
    try:
        return repr(parse(cells))
    except (ValueError, QueryError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", ["int", "qplus", "minplus", "bool01"])
def test_parse_column_is_parse_annotation_per_cell(name):
    sr = get_semiring(name)
    columns = [(), ("1", " 2 ", "+3", "0", "-4"), ("inf", " 4"), ("3/4", "1.5"),
               ("1", "x"), ("2",), ("-1/2",), ("1_0", "\t7\n"), ("",)]
    for cells in columns:
        want = _parsed(lambda c: [sr.parse_annotation(x) for x in c], cells)
        assert _parsed(sr.parse_column, cells) == want, cells


def test_unknown_semiring_and_operator():
    with pytest.raises(QueryError):
        get_semiring("nosuch")
    with pytest.raises(QueryError):
        get_semiring("int").additive("max")


def test_registry_rejects_duplicates():
    with pytest.raises(QueryError):
        register_semiring(get_semiring("int"))


def test_builtins_listed():
    names = [s.name for s in builtin_semirings()]
    assert names == ["int", "qplus", "minplus", "bool01"]


def test_law_checker_catches_bad_semiring():
    broken = SemiringSpec(
        name="broken-test-only",
        domain="integer",
        additive_ops={"sum": lambda a, b: a - b},  # not commutative
        multiply=lambda a, b: a * b,
        zero=0,
        one=1,
    )
    with pytest.raises(AssertionError):
        check_laws(broken, random.Random(1), triples=50)
