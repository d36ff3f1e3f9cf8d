"""tropline: exact tropical limits of plane lines relative to two divisors.

The pipeline runs: tropicalize a degenerating family of lines, extract its
level structure and leveled dual graph, build and solve the matching linear
system exactly, classify the limit against the moduli fans, and check the
log-rescaled convergence numerically.

Each public name is imported from its module, which lists it in its own
`__all__`: `from tropline.tropical import tropicalize_line`.  Importing the
package loads none of its modules, so a program that uses one layer, or a
`trop` command, loads only the modules it needs.  numpy loads only at the
first amoeba computation.
"""

__version__ = "0.1.0"
