import io
import json

import numpy as np
import pytest

from fredkit import serialize
from fredkit.serialize import (
    csv_text,
    dumps_canonical,
    obj_to_complex,
    read_complex_csv,
    write_complex_csv,
)


# The recursive writer that the array fast path replaced, kept verbatim
# (renamed) as the oracle: one call per number, complex values as dicts.
def _reference_fmt_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    out = format(x, ".17g")
    # keep the token a valid JSON number
    return out if ("e" in out or "." in out or "inf" in out) else out + ".0"


def _reference_dumps(obj, indent=None, _level=0):
    """Canonical JSON text for dict/list/str/num/complex/ndarray trees."""
    pad = "" if indent is None else "\n" + " " * (indent * (_level + 1))
    end = "" if indent is None else "\n" + " " * (indent * _level)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            items.append(
                f"{pad}{_reference_dumps(str(key))}: "
                f"{_reference_dumps(obj[key], indent, _level + 1)}"
            )
        return "{" + ",".join(items) + end + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}{_reference_dumps(v, indent, _level + 1)}" for v in obj]
        return "[" + ",".join(items) + end + "]"
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist(), indent, _level)
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        for ch, esc in (("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
            out = out.replace(ch, esc)
        return f'"{out}"'
    if isinstance(obj, (complex, np.complexfloating)):
        return _reference_dumps({"re": float(obj.real), "im": float(obj.imag)}, indent, _level)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_fmt_float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# floats whose tokens take every branch of the number rule
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.0,
                  2.0 ** 53, 1e16, 99999999999999984.0, 1e17, 1e22, -1e22, 0.1,
                  1.0 / 3.0, 1e-5, 123456.789, 1.7976931348623157e308]


def _random_floats(rng, shape):
    """Normal draws over many decades, a quarter of them special values."""
    values = np.array(rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape))
    special = rng.random(shape) < 0.25
    values[special] = rng.choice(SPECIAL_FLOATS, size=int(special.sum()))
    return values


def _random_array(rng):
    ndim = int(rng.integers(0, 4))
    shape = tuple(int(d) for d in rng.integers(0, 4, ndim))
    if rng.random() < 0.2 and ndim:  # an empty axis somewhere
        shape = shape[:-1] + (0,) if rng.random() < 0.5 else (0,) + shape[1:]
    kind = rng.integers(5)
    if kind == 0:
        return _random_floats(rng, shape)
    if kind == 1:
        return np.asarray(_random_floats(rng, shape) + 1j * _random_floats(rng, shape))
    if kind == 2:
        return np.asarray(np.clip(_random_floats(rng, shape), -1e38, 1e38), dtype=np.float32)
    if kind == 3:
        return np.asarray(rng.integers(-5, 5, shape))
    return np.asarray(rng.random(shape) < 0.5)


def _random_leaf(rng):
    pick = rng.integers(11)
    if pick == 0:
        return float(rng.choice(SPECIAL_FLOATS))
    if pick == 1:
        return float(_random_floats(rng, ()))
    if pick == 2:
        return int(rng.integers(-10 ** 6, 10 ** 6))
    if pick == 3:
        return bool(rng.random() < 0.5)
    if pick == 4:
        return None
    if pick == 5:
        return str(rng.choice(["", "plain", 'quote " and \\ slash', "tab\tnew\nline\r"]))
    if pick == 6:
        return complex(float(rng.choice(SPECIAL_FLOATS)), float(_random_floats(rng, ())))
    if pick == 7:
        scalars = [np.float64(-0.0), np.float32(0.1), np.int64(7),
                   np.complex128(1e22 - 0.5j), np.complex64(2 + 1j)]
        return scalars[rng.integers(len(scalars))]
    return _random_array(rng)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return _random_leaf(rng)
    size = int(rng.integers(0, 4))
    pick = rng.integers(3)
    if pick == 0:
        return {f"k{int(rng.integers(10))}": _random_tree(rng, depth - 1) for _ in range(size)}
    items = [_random_tree(rng, depth - 1) for _ in range(size)]
    return items if pick == 1 else tuple(items)


class TestCanonicalJson:
    def test_floats_have_17_digits(self):
        text = dumps_canonical({"x": 1.0 / 3.0})
        assert text == '{"x": 0.33333333333333331}'

    def test_keys_sorted(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"a": 2,"b": 1}'

    def test_complex_as_re_im(self):
        text = dumps_canonical(1.5 - 0.25j)
        assert json.loads(text) == {"re": 1.5, "im": -0.25}

    def test_parses_back(self):
        obj = {"vals": [0.1, 2, None, True], "z": 1 + 2j, "s": 'he said "hi"\n'}
        parsed = json.loads(dumps_canonical(obj, indent=2))
        assert parsed["s"] == 'he said "hi"\n'
        assert parsed["vals"][0] == 0.1
        assert obj_to_complex(parsed["z"]) == 1 + 2j

    @pytest.mark.parametrize("obj, z", [({"re": 1.5}, 1.5), ({"im": -2}, -2j), (0.5, 0.5)])
    def test_complex_object_part_defaults_to_zero(self, obj, z):
        assert obj_to_complex(obj) == z

    @pytest.mark.parametrize("obj", [{}, {"real": 1.5}, {"re": 1.5, "img": 2.0}])
    def test_complex_object_with_other_keys_rejected(self, obj):
        with pytest.raises(ValueError, match="keys 're' and 'im' only"):
            obj_to_complex(obj)

    @pytest.mark.parametrize("obj", [{"re": "1.5"}, {"re": 1.0, "im": None}, {"im": [2.0]}])
    def test_complex_object_parts_must_be_numbers(self, obj):
        with pytest.raises(ValueError, match="parts are real numbers"):
            obj_to_complex(obj)

    @pytest.mark.parametrize("obj", [True, False, "1+2j", "0.5", {"re": True}, {"im": False}],
                             ids=["true", "false", "text", "text-real", "re-true", "im-false"])
    def test_bool_or_text_is_not_a_number(self, obj):
        with pytest.raises(ValueError, match="number"):
            obj_to_complex(obj)

    def test_ndarray_serialized(self):
        assert json.loads(dumps_canonical(np.array([1.0, 2.0]))) == [1.0, 2.0]

    def test_deterministic(self):
        obj = {"a": [0.1 * k for k in range(50)], "b": {"c": 1e-17}}
        assert dumps_canonical(obj) == dumps_canonical(obj)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))

    def test_array_tokens(self):
        values = np.array([2.0, -0.0, 5e-324, 1e16, 1e17, 1e22, 0.1])
        assert dumps_canonical(values) == (
            "[2.0,-0.0,4.9406564584124654e-324,10000000000000000.0,1e+17,1e+22,"
            "0.10000000000000001]"
        )

    def test_complex_array_template(self):
        text = dumps_canonical({"z": np.array([[1 - 2j]])}, indent=2)
        assert text == (
            '{\n  "z": [\n    [\n      {\n        "im": -2.0,\n        "re": 1.0\n'
            "      }\n    ]\n  ]\n}"
        )

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3), (2, 0, 1)])
    def test_empty_arrays(self, shape):
        for dtype in (float, complex):
            a = np.zeros(shape, dtype=dtype)
            for indent in (None, 2):
                assert dumps_canonical(a, indent, 1) == _reference_dumps(a, indent, 1)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_matches_recursive_writer(self, indent):
        rng = np.random.default_rng(6)
        for _ in range(300):
            tree = _random_tree(rng, 4)
            level = int(rng.integers(3))
            assert dumps_canonical(tree, indent, level) == _reference_dumps(tree, indent, level)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_matches_recursive_writer_on_arrays(self, indent):
        rng = np.random.default_rng(7)
        for ndim in (1, 2, 3):
            shape = tuple(int(d) for d in rng.integers(1, 5, ndim))
            real = _random_floats(rng, shape)
            cplx = real + 1j * _random_floats(rng, shape)
            tree = {"real": real, "complex": cplx, "nested": [real, {"c": cplx}]}
            assert dumps_canonical(tree, indent) == _reference_dumps(tree, indent)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                     complex(np.inf, 0.0)])
    def test_non_finite_array_entry_rejected(self, bad):
        a = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical({"a": a}, indent=2)


# arrays of 64 entries or more, and of 0 to 6; each is written through the
# same "%.17g" templates, a complex one whose imaginary parts are all +0.0
# with 0.0 in its entry template
def _gl_nodes(n):
    return np.polynomial.legendre.leggauss(n)[0]


BIG_ARRAYS = {
    # the CLI's iterate output: a 128 x 128 complex matrix, imaginary parts 0.0
    "complex-128-zero-imag": np.asarray(np.outer(_gl_nodes(128), _gl_nodes(128)) / 3.0 ** 19,
                                        dtype=complex),
    "rank-one-real-128": np.outer(np.arange(1.0, 129.0), 0.1 * np.arange(-64.0, 64.0)),
    "signed-zeros": np.array([0.0, -0.0, 1.5, -0.0] * 40).reshape(10, 16),
    "signed-zeros-complex": np.array([complex(0.0, -0.0), complex(-0.0, 0.0)] * 40),
    "integral-edges": np.array([1e16 - 2, 1e16, 1e17, 2.5e17, -1e16, -(1e16 - 2), -1e17,
                                -2.5e17, 99999999999999984.0, 2.0 ** 53] * 8),
    "subnormals": np.array([5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1e-320,
                            2.2250738585072014e-308, 0.0, -0.0] * 10).reshape(2, 5, 8),
    "float32": np.linspace(-3.0, 3.0, 100, dtype=np.float32).reshape(4, 25),
    "complex64": np.asarray(np.linspace(-1.0, 1.0, 80) + 1j * np.linspace(0.0, 2.0, 80),
                            dtype=np.complex64),
    # imaginary parts all +0.0; real parts with -0.0 and integral values
    "zero-imag-signed-real": np.array([-0.0, 1.0, -3.0, 0.5, 1e16, 2.5e17, 0.0, 7.0] * 10,
                                      dtype=complex).reshape(8, 10),
    # +0.0 but for one -0.0: interleaved, the -0.0 keeping its token
    "one-negative-zero-imag": np.array([complex(1.5, 0.0)] * 63 + [complex(2.0, -0.0)]),
    "all-negative-zero-imag": np.array([complex(v, -0.0) for v in range(-40, 40)]),
}
# the iterate payload spans several "%.17g" templates
assert BIG_ARRAYS["complex-128-zero-imag"].size > 2 * serialize._FORMAT_CHUNK
SMALL_ARRAYS = {
    "signed-zeros": np.array([0.0, -0.0, -0.0, 0.0]),
    "integral-edges": np.array([1e16 - 2, 1e16, 1e17, 2.5e17, -1e16, -2.5e17]),
    "subnormals": np.array([[5e-324, -5e-324], [1e-310, 2.2250738585072009e-308]]),
    "zero-d-real": np.array(-0.0),
    "zero-d-complex": np.array(1e16 - 2j),
    "zero-d-complex-zero-imag": np.array(complex(-2.5, 0.0)),
    "real-1": np.array([0.1]),
    "real-3": np.array([-0.0, 3.0, 1e17]),
    "complex-1": np.array([complex(4.0, 0.0)]),
    "complex-3": np.array([complex(1.0, 0.0), complex(-0.0, 2.5), complex(1e-300, -0.0)]),
    "empty-complex": np.zeros((3, 0, 2), dtype=complex),
    "empty-real": np.zeros((0,)),
}


class TestDistinctValueTokens:
    """_tokens formats every array, large or small, through chunked "%.17g"
    templates, and a complex array whose imaginary parts are all +0.0 fills
    0.0 into its entry template; the bytes are those of the per-number
    writer either way."""

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("name", list(BIG_ARRAYS) + [f"small-{k}" for k in SMALL_ARRAYS])
    def test_matches_recursive_writer(self, name, indent):
        a = BIG_ARRAYS[name] if name in BIG_ARRAYS else SMALL_ARRAYS[name[len("small-"):]]
        tree = {"a": a, "nested": [a, {"b": a}]}
        assert dumps_canonical(tree, indent) == _reference_dumps(tree, indent)

    def test_signed_zeros_keep_their_tokens(self):
        text = dumps_canonical(BIG_ARRAYS["signed-zeros"])
        assert text.count("-0.0") == 80 and text.count("0.0") == 120

    @pytest.mark.parametrize("indent", [None, 2])
    def test_random_repeats(self, indent):
        """Values drawn from a pool of 20, some of them special, so most are repeats."""
        rng = np.random.default_rng(8)
        for shape in ((64,), (9, 10), (3, 5, 7), (200,)):
            pool = _random_floats(rng, (20,))
            real = pool[rng.integers(0, 20, shape)]
            cplx = real + 1j * pool[rng.integers(0, 20, shape)]
            tree = {"real": real, "complex": cplx}
            assert dumps_canonical(tree, indent) == _reference_dumps(tree, indent)

    @pytest.mark.parametrize("scalar, named", [(complex(np.inf, np.nan), "nan"),
                                               (complex(-np.inf, 1.0), "-inf"),
                                               (np.float32(np.inf), "inf")])
    def test_non_finite_scalar_rejected(self, scalar, named):
        """A scalar is checked as a 0-d array is: imaginary part first."""
        for obj in (scalar, np.asarray(scalar)):
            with pytest.raises(ValueError, match=f"^non-finite value {named} "):
                dumps_canonical([obj])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan), complex(np.inf, 0.0)])
    def test_non_finite_entry_rejected(self, bad):
        """The error names the first imaginary part that is not finite,
        else the first real part."""
        a = np.ones((16, 16), dtype=type(bad))
        a[3, 5] = bad
        a[9, 1] = complex(-np.inf, np.inf) if a.dtype.kind == "c" else -np.inf
        if a.dtype.kind == "c":
            first = a.imag[3, 5] if not np.isfinite(a.imag[3, 5]) else a.imag[9, 1]
        else:
            first = bad
        with pytest.raises(ValueError, match=f"^non-finite value {float(first)!r} "):
            dumps_canonical({"a": a})


class TestComplexCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        buf = io.StringIO()
        write_complex_csv(buf, M)
        back = read_complex_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, M)

    def test_real_cells_stay_plain(self):
        text = csv_text(np.array([[1.5, -2.0]]))
        assert text == "1.5,-2\n"

    def test_complex_cells_quoted(self):
        text = csv_text(np.array([[1.0 + 2.0j]]))
        assert text == '"1,2"\n'

    def test_reads_plain_real_csv(self):
        back = read_complex_csv(io.StringIO("1,2\n3,4\n"))
        assert np.array_equal(back, np.array([[1, 2], [3, 4]], dtype=complex))

    def test_malformed_cell_rejected(self):
        with pytest.raises(ValueError):
            read_complex_csv(io.StringIO('"1,2,3"\n'))
