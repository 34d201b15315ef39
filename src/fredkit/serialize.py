"""Deterministic JSON and CSV serialization.

JSON output is rendered by hand so the byte stream is reproducible: keys
sorted, floats printed with 17 significant digits, complex numbers as
{"im": ..., "re": ...}.  CSV uses the RFC dialect with '.' decimals and
complex cells written as quoted "re,im" pairs.

Real and complex float ndarrays take a fast path: nested brackets are
folded from the innermost axis outwards into one template, instead of one
recursive call per number, and the values fill it from "%.17g" templates
of _FORMAT_CHUNK values each.  A complex array whose imaginary parts are
all +0.0, as the CLI's real results written as complex are, has 0.0 in its
entry template and formats its real parts only.  The bytes are the same as
the per-number rendering of the array's nested lists.  Float and complex
scalars go straight to ``_number``, a complex one's imaginary part first as
in an array; other values (dicts, lists, ints, bools, strings, integer
arrays) are written recursively.  The CLI writes the text to a file as
UTF-8 bytes; which fields each command writes is the CLI's to decide.
"""
import csv
import io
import math

import numpy as np

from .errors import _is_number


# values per "%.17g" template: one template over all of a large array's
# values grows a string of hundreds of kB, which fragments the heap (on
# cli-mix, peak RSS rose by up to 3.6 MB over per-number formatting; in
# chunks of this size it stays within 0.5 MB, at the same speed)
_FORMAT_CHUNK = 512


def _check_finite(a):
    """ValueError naming the first entry of a float64 or complex128 array,
    in C order, that is not finite: of a complex array, the first imaginary
    part that is not, else the first real part (a real array's imaginary
    parts are zeros)."""
    if np.isfinite(a).all():
        return
    for part in (a.imag, a.real):
        finite = np.isfinite(part)
        if not finite.all():
            bad = float(part[~finite].flat[0])
            raise ValueError(f"non-finite value {bad!r} cannot be serialized")


def _number(x):
    """The JSON token of one float: its ".17g" text, which round-trips a
    double, with ".0" appended when the text has neither "." nor "e" (an
    integral value below 1e17 in magnitude) so it reads back as a float.
    Raises ValueError if x is not finite."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    t = "{:.17g}".format(x)
    return t if "." in t or "e" in t else t + ".0"


def _tokens(values):
    """The _number tokens of a finite float64 array's entries, in C order,
    as a list: "%.17g" templates of _FORMAT_CHUNK values each, filled from
    tuples, then ".0" appended to the integral values below 1e17 in
    magnitude.  -0.0 keeps its sign ("-0.0")."""
    values = values.ravel()
    floats, text = values.tolist(), []
    for i in range(0, len(floats), _FORMAT_CHUNK):
        chunk = tuple(floats[i:i + _FORMAT_CHUNK])
        text += ("%.17g " * len(chunk) % chunk).split()
    for i in np.flatnonzero((values == np.floor(values)) & (abs(values) < 1e17)).tolist():
        text[i] += ".0"
    return text


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
    innermost axis outwards.  The entries' tokens fill it in one pass; a
    complex array's come from its parts interleaved as (im, re), the
    imaginary parts checked first for a value that is not finite, except
    that imaginary parts all +0.0 (none nonzero, none with its sign bit set)
    are written as the literal 0.0 in the entry template and only the real
    parts are formatted.
    """
    leaf = level + a.ndim
    a = np.asarray(a, dtype=complex if a.dtype.kind == "c" else float)
    _check_finite(a)
    if a.dtype.kind == "c":
        zero_imag = not (a.imag.any() or np.signbit(a.imag).any())
        inner = _pad(indent, leaf + 1)
        template = ("{" + inner + '"im": ' + ("0.0" if zero_imag else "%s") + "," + inner
                    + '"re": %s' + _pad(indent, leaf) + "}")
        tokens = _tokens(a.real if zero_imag else np.stack((a.imag, a.real), axis=-1))
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
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        im = _number(z.imag)  # checked first, as in an array
        return f'{{{pad}"im": {im},{pad}"re": {_number(z.real)}{end}}}'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def obj_to_complex(d):
    """complex of a number or of a {"re": ..., "im": ...} object of real
    numbers, a missing part read as 0; ValueError for an object with neither
    key, with any other key or with a part that is not a real number, and
    for anything else that is not a number, a bool or a string included."""
    if isinstance(d, dict):
        if not d or not set(d) <= {"re", "im"}:
            raise ValueError(f"a complex object has keys 're' and 'im' only, got {list(d)}")
        parts = [d.get(key, 0.0) for key in ("re", "im")]
        if not all(_is_number(v, real=True) for v in parts):
            raise ValueError(f"a complex object's parts are real numbers, got {d!r}")
        return complex(*map(float, parts))
    if not _is_number(d):
        raise ValueError(f"a complex literal is a number or an object {{'re', 'im'}}, got {d!r}")
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
