pub mod churn;
pub mod monthly;
pub mod serve;
