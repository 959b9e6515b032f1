"""Bit pins for the numpy loops the tests run on.

numpy picks its elementwise loops by CPU at import.  On x86-64 hosts with
AVX-512 (numpy's ``X86_V4`` target) a few of them round differently from
the AVX2 loops, and the last bits of some pinned values move with them.
Such a pin holds one exact value per target.  Setting

    NPY_DISABLE_CPU_FEATURES="AVX512F AVX512CD AVX512_SKX AVX512_CLX
                              AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"

makes an AVX-512 host run the AVX2 loops, so both sets can be checked on
one host.  Both were captured with numpy 2.4.
"""

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

X86_V4 = bool(__cpu_features__.get("X86_V4", False))


def per_target(x86_v4, other):
    """The pin captured with numpy's ``X86_V4`` loops, or the one captured
    without them."""
    return x86_v4 if X86_V4 else other
