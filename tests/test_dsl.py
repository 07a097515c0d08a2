"""Metric DSL: parsing, errors with positions, domains, printing round-trip."""

import re

import numpy as np
import pytest

from chernkit import expr as ex
from chernkit.catalog import builtin, names, sample_points
from chernkit.domains import Annulus, Ball, Polydisc, Product
from chernkit.dsl import MAX_DIM, DslError, MetricSpec, parse_expression, parse_metric, print_metric


def test_parse_euclidean_identity():
    spec = parse_metric("dim 2; g[1,1]=1; g[2,2]=1")
    assert spec.n == 2
    assert spec.entries[0][0] == ex.ONE
    assert spec.entries[1][1] == ex.ONE
    # unset entries default to zero
    assert spec.entries[0][1] == ex.ZERO
    assert spec.entries[1][0] == ex.ZERO


def test_parse_hopf_via_abs2():
    spec = parse_metric("dim 2; g[1,1]=1/abs2(z); g[2,2]=1/abs2(z)")
    p = np.array([1.0 + 1.0j, 2.0])
    want = 1 / (2.0 + 4.0)
    assert abs(ex.evaluate(spec.entries[0][0], p) - want) < 1e-15


def test_abs2_of_general_argument():
    e = parse_expression("abs2(z1 + 2i)", 1)
    z = 0.3 - 0.7j
    assert abs(ex.evaluate(e, [z]) - abs(z + 2j) ** 2) < 1e-14


def test_syntax_error_position():
    with pytest.raises(DslError) as err:
        parse_metric("dim 2\ng[1,1]=")
    assert err.value.line == 2
    assert err.value.col == 8


def test_dimension_mismatch():
    with pytest.raises(DslError, match="out of range"):
        parse_metric("dim 2\ng[3,1] = 1")
    with pytest.raises(DslError, match="out of range"):
        parse_metric("dim 2\ng[1,1] = z3")


def test_duplicate_assignment():
    with pytest.raises(DslError, match="assigned twice"):
        parse_metric("dim 2\ng[1,1] = 1\ng[1,1] = 2")
    with pytest.raises(DslError, match="duplicate let"):
        parse_metric("dim 1\nlet w = 1\nlet w = 2\ng[1,1]=w")


def test_unknown_identifier_and_bare_z():
    with pytest.raises(DslError, match="unknown identifier"):
        parse_metric("dim 1\ng[1,1] = potato")
    with pytest.raises(DslError, match="abs2"):
        parse_metric("dim 1\ng[1,1] = z")


def test_reserved_let_names():
    for bad in ("dim", "conj", "z1", "zbar2", "z", "abs2"):
        with pytest.raises(DslError, match="reserved"):
            parse_metric(f"dim 2\nlet {bad} = 1\ng[1,1]=1")


def test_dim_required_first_and_once():
    with pytest.raises(DslError, match="dim must be declared first"):
        parse_metric("g[1,1] = 1\ndim 2")
    with pytest.raises(DslError, match="dim declared twice"):
        parse_metric("dim 2\ndim 3")
    with pytest.raises(DslError, match="missing dim"):
        parse_metric("# nothing here\n")


def test_let_bindings_inline():
    spec = parse_metric("dim 1\nlet w = 1 + abs2(z)\ng[1,1] = 1/w^2")
    z = 0.5 + 0.25j
    want = 1 / (1 + abs(z) ** 2) ** 2
    assert abs(ex.evaluate(spec.entries[0][0], [z]) - want) < 1e-15


def test_complex_literals_fold():
    e = parse_expression("2-3i", 1)
    assert e == ex.const(2 - 3j)
    e = parse_expression("1.5e-2i", 1)
    assert e == ex.const(0.015j)


def test_negative_exponent_sugar():
    e = parse_expression("(1 + z1*zbar1)^-2", 1)
    z = 0.4 - 0.2j
    assert abs(ex.evaluate(e, [z]) - (1 + abs(z) ** 2) ** -2) < 1e-15


def test_exponent_must_be_integer():
    with pytest.raises(DslError, match="integer"):
        parse_expression("z1^1.5", 1)


def test_domain_parsing():
    assert parse_metric("dim 1\ng[1,1]=1\ndomain ball 2").domain == Ball(2.0)
    assert parse_metric("dim 1\ng[1,1]=1\ndomain annulus 0.5 2").domain == Annulus(0.5, 2.0)
    assert parse_metric("dim 1\ng[1,1]=1\ndomain polydisc 0.7").domain == Polydisc(0.7)
    spec = parse_metric("dim 2\ng[1,1]=1\ng[2,2]=1\ndomain product ball 0.6; ball 2")
    assert spec.domain == Product((Ball(0.6), Ball(2.0)))
    # default when omitted
    assert parse_metric("dim 1\ng[1,1]=1").domain == Ball(1.0)


def test_domain_errors():
    with pytest.raises(DslError, match="one factor per coordinate"):
        parse_metric("dim 3\ng[1,1]=1\ndomain product ball 1; ball 1")
    with pytest.raises(DslError, match="annulus needs"):
        parse_metric("dim 1\ng[1,1]=1\ndomain annulus 2 0.5")
    with pytest.raises(DslError, match="unknown domain"):
        parse_metric("dim 1\ng[1,1]=1\ndomain cube 1")
    # radii must be positive; a literal that float reads as inf (1e999) is rejected where it stands
    for domain, col, why in (("ball 1e999", 13, "number literal '1e999' is not finite"),
                             ("ball 0", 13, "ball radius must be positive"),
                             ("polydisc 0.0", 17, "polydisc radius must be positive"),
                             ("polydisc 1e400", 17, "number literal '1e400' is not finite"),
                             ("annulus 1 1e999", 18, "number literal '1e999' is not finite"),
                             ("product ball 1; ball 1e999", 29, "number literal '1e999' is not finite")):
        with pytest.raises(DslError, match=f"^line 3, col {col}: {why}"):
            parse_metric(f"dim {2 if 'product' in domain else 1}\ng[1,1]=1\ndomain {domain}")


@pytest.mark.parametrize(
    "source, message",
    [
        ("g[1,1] = 1.2.3", "line 2, col 10: bad number literal '1.2.3'"),
        ("g[1,1] = 1 $ 2", "line 2, col 12: unexpected character '$'"),
        ("g[1,1", "line 2, col 6: expected ']' but the statement ended"),
        ("g[a,1] = 1", "line 2, col 3: expected 'NUM', got 'a'"),
        ("g[1,1] = *2", "line 2, col 10: unexpected '*' in expression"),
        ("= 1", "line 2, col 1: unexpected '='"),
        ("dim 0", "line 1, col 5: dim must be a positive integer"),
        ("dim 1.5", "line 1, col 5: dim must be a positive integer"),
        (f"dim {MAX_DIM + 1}", f"line 1, col 5: dim must be at most {MAX_DIM}"),
        ("dim 100000", f"line 1, col 5: dim must be at most {MAX_DIM}"),
        ("g[1,1] = 1\ndomain ball 1\ndomain ball 2", "line 4, col 1: domain declared twice"),
        ("foo 1", "line 2, col 1: unknown statement 'foo'"),
        # a digit is a decimal digit, as float and int read it: a superscript two is a name character
        ("dim 2\ng[2,2] = 1 + z²*zbar2", "line 2, col 14: unknown identifier 'z²'"),
        ("g[1,1] = 1 + ½", "line 2, col 14: unknown identifier '½'"),
        ("g[1,1] = 1 +", "line 2, col 13: expected an expression"),
        ("g[1,1] = z1 zbar1", "line 2, col 13: unexpected 'zbar1' after expression"),
        ("let exp = 1", "line 2, col 5: 'exp' is reserved"),
        ("let abs2 = 1", "line 2, col 5: 'abs2' is reserved"),
        ("g[1,1] = z2", "line 2, col 10: coordinate 'z2' out of range for dim 1"),
        ("g[2,1] = 1", "line 2, col 3: entry index [2,1] out of range for dim 1"),
        ("g[1,1] = 1; g[1,1] = 2", "line 2, col 15: entry g[1,1] assigned twice"),
        ("let a = 1\nlet a = 2", "line 3, col 5: duplicate let 'a'"),
        ("g[1,1] = 1  # no dim", "line 1, col 1: dim must be declared first"),
        ("dim 1\ndim 2", "line 2, col 1: dim declared twice"),
        ("g[1,1] = z1^1.5", "line 2, col 13: exponent must be an integer"),
        ("g[1,1] = 1 + abs2(z", "line 2, col 19: bare 'z' is only valid inside abs2(z)"),
        ("g[1,1] = (1", "line 2, col 12: expected ')' but the statement ended"),
        ("g[1,1] = exp", "line 2, col 10: unknown identifier 'exp'"),
        # an index with more digits than int reads is out of range like any other
        pytest.param("g[1,1] = z" + "1" * 5000,
                     f"line 2, col 10: coordinate 'z{'1' * 5000}' out of range for dim 1",
                     id="long-coordinate-index"),
    ],
)
def test_each_error_names_its_line_column_and_reason(source, message):
    # each source starts with "dim 1\n" unless it mentions dim itself
    with pytest.raises(DslError, match=f"^{re.escape(message)}$"):
        parse_metric(source if "dim" in source else "dim 1\n" + source)


def test_decimal_digits_of_any_script_are_digits_and_other_numerals_are_name_characters():
    z3 = parse_expression("z\u0663 + 1\u0663", 3)  # ARABIC-INDIC DIGIT THREE
    assert z3 == parse_expression("z3 + 13", 3)
    spec = parse_metric("dim 1\nlet ½ = 0.5\ng[1,1] = 1 + ½*abs2(z)")
    assert spec.entries[0][0] == parse_expression("1 + 0.5*abs2(z)", 1)


def test_comments_and_blank_lines():
    spec = parse_metric("# a metric\n\ndim 1  # inline comment\ng[1,1] = 1 # one\n")
    assert spec.n == 1


def test_print_parse_round_trip_catalog():
    # evaluation-equal at 20 domain points to 1e-12, for every built-in metric
    for name in names():
        entry = builtin(name)
        spec = entry.spec
        back = parse_metric(print_metric(spec), name=spec.name)
        pts = sample_points(entry, 20, 123)
        for i in range(spec.n):
            for j in range(spec.n):
                a = ex.evaluate(spec.entries[i][j], pts)
                b = ex.evaluate(back.entries[i][j], pts)
                assert np.max(np.abs(np.asarray(a) - b)) < 1e-12, (name, i, j)
        assert back.domain == spec.domain
    # the catalog declares no polydisc, alone or in a product
    entries = parse_metric("dim 2\ng[1,1] = 1 + abs2(z)\ng[2,2] = 2 - 3i*z1*zbar2").entries
    for domain in (Polydisc(0.7), Product((Polydisc(2.5), Annulus(0.5, 2.0)))):
        text = print_metric(MetricSpec(n=2, entries=entries, domain=domain))
        assert parse_metric(text).domain == domain and print_metric(parse_metric(text)) == text


def test_parse_expression_rejects_trailing_tokens():
    with pytest.raises(DslError, match="after expression"):
        parse_expression("z1 z2", 2)


def test_expression_depth_limit():
    from chernkit.dsl import MAX_DEPTH

    # a long sum is a left-deep tree: one level per term
    with pytest.raises(DslError, match=r"line 2, col \d+: expression is nested deeper"):
        parse_metric("dim 1\ng[1,1] = " + " + ".join(["z1*zbar1"] * 1500))
    with pytest.raises(DslError, match="brackets are nested deeper"):
        parse_expression("(" * 1000 + "z1" + ")" * 1000, 1)
    # let names are substituted, so their depth counts too
    deep_let = "dim 1\nlet a = " + " + ".join(["z1"] * 60) + "\ng[1,1] = " + "*".join(["a"] * 50)
    with pytest.raises(DslError, match="line 3"):
        parse_metric(deep_let)
    # at the limit everything still parses; repeated signs fold and never nest
    at_limit = " + ".join(["z1"] * MAX_DEPTH)
    assert abs(ex.evaluate(parse_expression(at_limit, 1), [0.5]) - 0.5 * MAX_DEPTH) < 1e-12
    assert parse_expression("(" * MAX_DEPTH + "z1" + ")" * MAX_DEPTH, 1) == ex.coord(1)
    assert parse_expression("-" * 5000 + "z1", 1) == ex.coord(1)
