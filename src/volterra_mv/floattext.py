"""The text of one float in an artifact: the shortest decimal that reads
back as the same double.

The digits are those of ``repr(v)``: the fewest that round-trip, and of
those the nearest to v, ties to even.  The layout is that of ``%g``: fixed
notation for decimal exponents -4 <= X < 17, else ``d.ddde+XX`` with at
least two exponent digits; no trailing fraction zeros and no bare point.
So ``0.005``, ``100``, ``1e+17``, ``-0``, ``nan``, ``inf`` and ``-inf``.
``volterra_mv.textfmt`` writes the same text for whole arrays at once and
calls this for the values its window leaves out; this module imports
nothing, so a run that writes no bulk file never loads the digit tables.
"""


def float_text(v) -> str:
    """The shortest round-trip text of the float ``v``."""
    text = repr(float(v))
    if text[-1] in "fn":  # inf, -inf, nan
        return text
    sign = "-" if text[0] == "-" else ""
    mantissa, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    # the decimal exponent of the first significant digit
    x = int(exp or 0) + len(whole) - 1 - (len(whole) + len(frac) - len(digits))
    digits = digits.rstrip("0")
    if not digits:
        return sign + "0"
    if not -4 <= x < 17:
        point = "." if len(digits) > 1 else ""
        return f"{sign}{digits[0]}{point}{digits[1:]}e{x:+03d}"
    if x < 0:
        return f"{sign}0.{'0' * (-x - 1)}{digits}"
    if len(digits) <= x + 1:
        return sign + digits + "0" * (x + 1 - len(digits))
    return f"{sign}{digits[:x + 1]}.{digits[x + 1:]}"
