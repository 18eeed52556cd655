"""Financial calculations with twin compat/exact modes plus a workbook audit engine.

The library's exceptions: a function raises ValueError for input it refuses,
and may raise ArithmeticError (OverflowError, ZeroDivisionError) where its
arithmetic leaves the range of a float for input it accepts.  Evaluating a
formula raises neither: every failure is the formula's error value.
"""

__version__ = "0.1.0"
