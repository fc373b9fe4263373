module projpush/bench

go 1.22

require projpush v0.0.0

replace projpush => ../
