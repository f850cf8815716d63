"""Desk-scale verification and discovery engine for impossibility theorems
and second-price auction properties.

Each name is imported from the module that defines it, such as
`implab.satkit.Cnf`, so `import implab` builds no layer.
"""

__version__ = "0.1.0"
