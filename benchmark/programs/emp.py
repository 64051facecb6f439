import lazyfatpandas.pandas as pd
import matplotlib.pyplot as plt
pd.analyze()
df = pd.read_csv('emp.csv')
g = df.groupby(['dept'])['salary'].mean()
print(g)
plt.plot(df)
plt.savefig('emp.png')
hi = df.salary.max()
print(f'max salary: {hi}')
