"""The paper's metatheory as code: proof transformations and generators
(proofs), and reductions through extension chains (extensions).  Every
construction here is checked by the kernel, and no verdict runs any of it:
this package imports the verdict path, and nothing on that path imports
this package."""
