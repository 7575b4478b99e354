"""sqglab: numerical laboratory for the forced critical SQG equation on T^2."""
