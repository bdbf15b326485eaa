module blaze

go 1.23
