"""Deterministic JSON and CSV serialization.

JSON output is rendered by hand so the byte stream is reproducible: keys
sorted, floats printed with 17 significant digits, complex numbers as
{"im": ..., "re": ...}.  CSV uses the RFC dialect with '.' decimals and
complex cells written as quoted "re,im" pairs.

Real and complex float ndarrays take a fast path: every entry is
formatted in one pass over the array and nested brackets are folded from
the innermost axis outwards, instead of one recursive call per number.
Float and complex scalars are written as 0-d arrays.  The bytes are the
same as the per-number rendering of the array's nested lists; other values
(dicts, lists, ints, bools, strings, integer arrays) are written
recursively.
"""
import csv
import io
import numbers

import numpy as np


def _tokens(values):
    """JSON number tokens of a real float array's entries, in C order.

    Each token is the entry's ".17g" text, which round-trips a double, with
    ".0" appended when the text has neither "." nor "e" (an integral value)
    so it reads back as a float.  Raises ValueError if any entry is not
    finite.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite].flat[0])
        raise ValueError(f"non-finite value {bad!r} cannot be serialized")
    return [t if "." in t or "e" in t else t + ".0"
            for t in map("{:.17g}".format, values.ravel().tolist())]


def _string(s):
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    for ch, esc in (("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t")):
        out = out.replace(ch, esc)
    return f'"{out}"'


def _pad(indent, level):
    return "" if indent is None else "\n" + " " * (indent * level)


def _array(a, indent, level):
    """Canonical JSON of a real or complex float array at nesting `level`.

    One template holds the whole array: a complex entry's template is fixed
    ("im" sorts before "re"), and brackets are built by folding the
    innermost axis outwards.  The entries' tokens fill it in one pass.
    """
    leaf = level + a.ndim
    if a.dtype.kind == "c":
        inner = _pad(indent, leaf + 1)
        template = "{" + inner + '"im": %s,' + inner + '"re": %s' + _pad(indent, leaf) + "}"
        tokens = [None] * (2 * a.size)
        tokens[0::2] = _tokens(a.imag)
        tokens[1::2] = _tokens(a.real)
    else:
        template, tokens = "%s", _tokens(a)
    for axis in reversed(range(a.ndim)):
        inner = _pad(indent, level + axis + 1)
        items = inner + ("," + inner).join([template] * a.shape[axis]) if a.shape[axis] else ""
        template = "[" + items + _pad(indent, level + axis) + "]"
    return template % tuple(tokens)


def dumps_canonical(obj, indent=None, _level=0):
    """Canonical JSON text for dict/list/str/num/complex/ndarray trees."""
    return _dump(obj, indent, _level)


def _dump(obj, indent, level):
    pad = _pad(indent, level + 1)
    end = _pad(indent, level)
    if isinstance(obj, dict):
        items = [f"{pad}{_string(str(key))}: {_dump(obj[key], indent, level + 1)}"
                 for key in sorted(obj)]
        return "{" + ",".join(items) + end + "}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}{_dump(v, indent, level + 1)}" for v in obj]
        return "[" + ",".join(items) + end + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            return _array(obj, indent, level)
        return _dump(obj.tolist(), indent, level)
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (float, complex, np.inexact)):  # a 0-d array
        return _array(np.asarray(obj), indent, level)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def obj_to_complex(d):
    """complex of a number or of a {"re": ..., "im": ...} object of real
    numbers, a missing part read as 0; ValueError for an object with neither
    key, with any other key or with a part that is not a real number."""
    if isinstance(d, dict):
        if not d or not set(d) <= {"re", "im"}:
            raise ValueError(f"a complex object has keys 're' and 'im' only, got {list(d)}")
        parts = [d.get(key, 0.0) for key in ("re", "im")]
        if not all(isinstance(v, numbers.Real) for v in parts):
            raise ValueError(f"a complex object's parts are real numbers, got {d!r}")
        return complex(*map(float, parts))
    return complex(d)


def _fmt_cell(z):
    z = complex(z)
    if z.imag == 0.0:
        return format(z.real, ".17g")
    return f"{format(z.real, '.17g')},{format(z.imag, '.17g')}"


def write_complex_csv(path_or_file, matrix):
    """Write a complex matrix as CSV; cells with commas are auto-quoted."""
    matrix = np.atleast_2d(np.asarray(matrix))

    def _write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        for row in matrix:
            writer.writerow([_fmt_cell(z) for z in row])

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)


def _parse_cell(cell):
    parts = cell.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"malformed complex cell {cell!r}")


def read_complex_csv(path_or_file):
    """Read a CSV of real or quoted "re,im" cells into a complex matrix."""
    def _read(fh):
        rows = [[_parse_cell(c) for c in row] for row in csv.reader(fh) if row]
        return np.array(rows, dtype=complex)

    if hasattr(path_or_file, "read"):
        return _read(path_or_file)
    with open(path_or_file, newline="") as fh:
        return _read(fh)


def csv_text(matrix):
    buf = io.StringIO()
    write_complex_csv(buf, matrix)
    return buf.getvalue()


def decomposition_to_obj(d):
    """JSON-ready summary of a BiSpectralDecomposition."""
    return {
        "eigenvalues": np.asarray(d.eigenvalues, dtype=complex),
        "biorth_residual": float(d.biorth_residual),
        "hermitian": bool(d.hermitian),
        "retained": int(d.retained),
    }


def jordan_to_obj(jf):
    """JSON-ready summary of a JordanForm."""
    return {
        "blocks": [{"lambda": complex(lam), "m": int(m)} for lam, m in jf.blocks],
        "residuals": np.asarray(jf.residuals, dtype=float),
    }
