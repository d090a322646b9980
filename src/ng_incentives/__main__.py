"""``python -m ng_incentives``: the ng-incentives command line."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
