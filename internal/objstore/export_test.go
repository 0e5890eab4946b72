package objstore

// StoreContract hands the Store contract to wrappers_test.go, which sits in
// the external test package so it can mount crashpoint's gate (crashpoint
// imports this package).
var StoreContract = storeContract
