"""8-bit look-up-table activations (sigmoid / tanh) and their error stats.

A table holds one output code per input code; the input code is the
two's-complement byte reinterpreted as an index 0..255, exactly as a
hardware LUT would address its ROM.
"""

import numpy as np

from .qformat import quantize, dequantize


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


ACTIVATIONS = {"sigmoid": _sigmoid, "tanh": _tanh}


class Lut256:
    """256-entry activation table from one 8-bit format to another.

    `table` is a read-only copy of the codes given, so the tables built
    from it and memoized in `derived` (`lstm_ref.tail_tables`) cannot go
    stale.
    """

    __slots__ = ("kind", "in_format", "out_format", "table", "derived")

    def __init__(self, kind, in_format, out_format, table):
        if kind not in ACTIVATIONS:
            raise ValueError("unknown activation kind %r" % (kind,))
        table = np.array(table, dtype=np.int64)
        if table.shape != (256,):
            raise ValueError("table must hold exactly 256 codes")
        table.flags.writeable = False
        self.kind = kind
        self.in_format = in_format
        self.out_format = out_format
        self.table = table
        self.derived = {}

    def __getitem__(self, code):
        return int(self.table[int(code) & 0xFF])

    def lookup(self, codes):
        """Vectorized table lookup on an array of signed input codes."""
        # the index modulo 256 is the code's low byte
        return self.table.take(np.asarray(codes, dtype=np.int64), mode="wrap")


def build_lut(kind, in_format, out_format):
    """Construct the table: entry[c] = quantize(act(dequantize(c)))."""
    if kind not in ACTIVATIONS:
        raise ValueError("unknown activation kind %r" % (kind,))
    act = ACTIVATIONS[kind]
    signed = np.arange(-128, 128, dtype=np.int64)
    out_codes = quantize(act(dequantize(signed, in_format)), out_format)
    table = np.zeros(256, dtype=np.int64)
    table[signed & 0xFF] = out_codes
    return Lut256(kind, in_format, out_format, table)


def lut_error_stats(lut, samples):
    """Squared-error statistics of the 8-bit pipeline vs the real activation.

    Per sample: quantize to the input format, look up, dequantize, compare
    against the full-precision activation of the *unquantized* sample.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample set")
    act = ACTIVATIONS[lut.kind]
    in_codes = quantize(samples, lut.in_format)
    approx = dequantize(lut.lookup(in_codes), lut.out_format)
    err = approx - act(samples)
    se = err * err
    return {
        "mse": float(np.mean(se)),
        "max_se": float(np.max(se)),
        "mean": float(np.mean(err)),
        "std": float(np.std(err)),
    }


def dump_lut(lut, path, fmt="csv"):
    """Write the table as 256 lines for documentation / hardware cross-check."""
    lines = []
    if fmt == "csv":
        lines.append("index,in_code,in_value,out_code,out_value")
        row = "%d,%d,%.10g,%d,%.10g"
    elif fmt == "txt":
        lines.append("# %s LUT  in=%r out=%r" % (lut.kind, lut.in_format, lut.out_format))
        row = "%3d  %4d  %12.8f  %4d  %12.8f"
    else:
        raise ValueError("unknown dump format %r" % (fmt,))
    for idx in range(256):
        code = idx - 256 if idx >= 128 else idx  # signed reinterpretation
        out = lut[code]
        lines.append(row % (idx, code, dequantize(code, lut.in_format),
                            out, dequantize(out, lut.out_format)))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
